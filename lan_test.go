package lan

import (
	"context"
	"encoding/json"
	"testing"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/dataset"
)

func buildSmallIndex(t *testing.T) (*Index, graph.Database, []*graph.Graph) {
	t.Helper()
	spec := dataset.AIDS(0.003)
	db := spec.Generate()
	queries := dataset.Workload(db, spec, 16, 9)
	train, _, test := dataset.Split(queries)
	idx, err := Build(db, train, Options{M: 5, Dim: 8, GammaKNN: 10, Epochs: 2, Seed: 2})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return idx, db, test
}

func TestPublicAPIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode: builds a full index end to end")
	}
	idx, db, test := buildSmallIndex(t)
	if idx.Len() != len(db) {
		t.Fatalf("Len = %d; want %d", idx.Len(), len(db))
	}
	if idx.GammaStar() <= 0 {
		t.Fatalf("GammaStar = %v", idx.GammaStar())
	}
	res, stats, err := idx.Search(test[0], SearchOptions{K: 3, Beam: 10})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(res) != 3 {
		t.Fatalf("%d results", len(res))
	}
	if stats.NDC <= 0 {
		t.Fatalf("stats empty: %+v", stats)
	}
	// Returned ids resolve to graphs and distances are consistent.
	for _, r := range res {
		g := idx.Graph(r.ID)
		if g == nil || g.ID != r.ID {
			t.Fatalf("Graph(%d) wrong", r.ID)
		}
	}
}

func TestSearchArgumentValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode: builds a full index")
	}
	idx, _, test := buildSmallIndex(t)
	if _, _, err := idx.Search(nil, SearchOptions{K: 3}); err == nil {
		t.Fatal("nil query accepted")
	}
	if _, _, err := idx.Search(test[0], SearchOptions{}); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestStrategyConstantsWireThrough(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode: builds a full index per strategy")
	}
	idx, _, test := buildSmallIndex(t)
	for _, is := range []InitialStrategy{LANIS, HNSWIS, RandIS} {
		for _, rt := range []RoutingStrategy{LANRoute, BaselineRoute, OracleRoute} {
			res, _, err := idx.Search(test[1], SearchOptions{K: 2, Beam: 6, Initial: is, Routing: rt})
			if err != nil || len(res) != 2 {
				t.Fatalf("is=%v rt=%v: res=%v err=%v", is, rt, res, err)
			}
		}
	}
}

// TestTraceExportRoundTrip: a trace recorded by a search and written by
// the exporter reads back from its segment directory as the same trace,
// and the replay counts it.
func TestTraceExportRoundTrip(t *testing.T) {
	idx, _, test := buildMutableIndex(t)
	dir := t.TempDir()
	exp, err := NewTraceExporter(TraceExportConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace("roundtrip")
	res, stats, err := idx.SearchContext(WithTrace(context.Background(), tr), test[0], SearchOptions{K: 3, Beam: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Steps) == 0 || tr.NDC != stats.NDC || tr.Results != len(res) {
		t.Fatalf("trace recorded %d steps, NDC %d, %d results; search NDC %d, %d results", len(tr.Steps), tr.NDC, tr.Results, stats.NDC, len(res))
	}
	exp.Submit(tr)
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	rs, err := ReadTraceSegments(dir, func(read *Trace) error {
		b, err := json.Marshal(read)
		got = append(got, b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Traces != 1 || rs.Segments != 1 || rs.Truncated != 0 {
		t.Fatalf("replay stats %+v; want 1 trace in 1 segment, none truncated", rs)
	}
	if len(got) != 1 || string(got[0]) != string(want) {
		t.Fatalf("read back %d traces:\n%s\nwant\n%s", len(got), got, want)
	}
}
