package core

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/internal/mat"
	"github.com/lansearch/lan/internal/models"
	"github.com/lansearch/lan/internal/obs"
	"github.com/lansearch/lan/internal/pg"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// TestSearchStatsConsistency pins that every routing strategy populates
// QueryStats the same way: the per-stage NDC split always sums to the
// total, ranker accounting follows the strategy (the oracle and M_rk
// rank, the baseline's one batch per node does not), and the neighbor
// tallies stay ordered. This is the regression test for the historical
// inconsistency where only some strategies filled the routing fields.
func TestSearchStatsConsistency(t *testing.T) {
	eng, _, _, test := buildEngine(t)
	q := test[0]
	for _, is := range []InitialStrategy{HNSWIS, LANIS} {
		for _, rt := range []RoutingStrategy{LANRoute, BaselineRoute, OracleRoute} {
			_, stats, _ := eng.Search(context.Background(), q, SearchOptions{K: 5, Beam: 12, Initial: is, Routing: rt})
			name := is.String() + "/" + rt.String()

			if stats.NDC <= 0 || stats.Total <= 0 {
				t.Fatalf("%s: empty cost: %+v", name, stats)
			}
			if stats.InitNDC <= 0 {
				t.Errorf("%s: InitNDC = %d; initial selection always computes distances", name, stats.InitNDC)
			}
			if stats.InitNDC+stats.RouteNDC != stats.NDC {
				t.Errorf("%s: stage split %d+%d != NDC %d", name, stats.InitNDC, stats.RouteNDC, stats.NDC)
			}
			if stats.Explored <= 0 {
				t.Errorf("%s: Explored = %d", name, stats.Explored)
			}
			if stats.InitTime <= 0 || stats.RouteTime <= 0 {
				t.Errorf("%s: stage times %v/%v not recorded", name, stats.InitTime, stats.RouteTime)
			}
			if stats.OpenedNeighbors > stats.RankedNeighbors {
				t.Errorf("%s: opened %d > ranked %d", name, stats.OpenedNeighbors, stats.RankedNeighbors)
			}
			if pr := stats.PruneRate(); pr < 0 || pr > 1 {
				t.Errorf("%s: prune rate %v outside [0,1]", name, pr)
			}

			switch rt {
			case LANRoute, OracleRoute:
				if stats.RankerCalls != stats.Explored {
					t.Errorf("%s: RankerCalls %d != Explored %d (one ranking per explored node)", name, stats.RankerCalls, stats.Explored)
				}
				if stats.RankedNeighbors <= 0 {
					t.Errorf("%s: np_route ranked no neighbors: %+v", name, stats)
				}
				if stats.BatchesOpened <= 0 {
					t.Errorf("%s: np_route opened no batches: %+v", name, stats)
				}
				// Every M_rk score is an inference or a memo hit, and only
				// ranked neighbours are scored; the oracle scores nothing.
				scores := stats.RankerInferences + stats.RankerMemoHits
				if rt == LANRoute && (stats.RankerInferences <= 0 || scores > stats.RankedNeighbors) {
					t.Errorf("%s: %d inferences + %d memo hits for %d ranked neighbours", name, stats.RankerInferences, stats.RankerMemoHits, stats.RankedNeighbors)
				}
				if rt == OracleRoute && scores != 0 {
					t.Errorf("%s: oracle routing counted %d M_rk scores", name, scores)
				}
			case BaselineRoute:
				// np_route without a ranker: one batch per explored node,
				// every neighbor opened, nothing pruned, nothing scored.
				if stats.RankerCalls != 0 || stats.RankerInferences != 0 || stats.RankerMemoHits != 0 {
					t.Errorf("%s: baseline ranked: %+v", name, stats)
				}
				if stats.RankedNeighbors <= 0 || stats.OpenedNeighbors != stats.RankedNeighbors || stats.PruneRate() != 0 {
					t.Errorf("%s: baseline opened %d of %d neighbors; want all, > 0", name, stats.OpenedNeighbors, stats.RankedNeighbors)
				}
				if stats.BatchesOpened != stats.Explored || stats.GammaSteps < 1 {
					t.Errorf("%s: baseline opened %d batches for %d explored nodes in %d γ steps", name, stats.BatchesOpened, stats.Explored, stats.GammaSteps)
				}
			}
		}
	}
}

// searchTraced runs one search with a fresh trace attached and returns
// everything the bit-identity checks compare.
func searchTraced(t *testing.T, eng *Engine, q *graph.Graph, so SearchOptions) ([]pg.Result, QueryStats, *obs.Trace) {
	t.Helper()
	tr := obs.NewTrace("t")
	res, stats, err := eng.Search(obs.With(context.Background(), tr), q, so)
	if err != nil {
		t.Fatalf("traced search: %v", err)
	}
	return res, stats, tr
}

// TestTracingBitIdentity pins the observability contract: attaching a
// trace must not change results or NDC, for every initial-selection and
// routing strategy, and the trace's totals must agree with the stats of
// the search it rode on.
func TestTracingBitIdentity(t *testing.T) {
	eng, _, _, test := buildEngine(t)
	q := test[0]

	for _, is := range []InitialStrategy{LANIS, HNSWIS, RandIS, LANISBasic} {
		for _, rt := range []RoutingStrategy{LANRoute, BaselineRoute, OracleRoute} {
			so := SearchOptions{K: 3, Beam: 8, Initial: is, Routing: rt}
			name := so.Initial.String() + "/" + so.Routing.String()
			wantRes, wantStats, err := eng.Search(context.Background(), q, so)
			if err != nil {
				t.Fatal(err)
			}

			res, stats, tr := searchTraced(t, eng, q, so)
			if !reflect.DeepEqual(res, wantRes) {
				t.Errorf("%s: tracing changed results: %v vs %v", name, res, wantRes)
			}
			if stats.NDC != wantStats.NDC || stats.Explored != wantStats.Explored {
				t.Errorf("%s: tracing changed cost: NDC %d/%d Explored %d/%d",
					name, stats.NDC, wantStats.NDC, stats.Explored, wantStats.Explored)
			}
			if tr.NDC != stats.NDC || tr.Results != len(res) {
				t.Errorf("%s: trace totals %d/%d disagree with stats %d/%d",
					name, tr.NDC, tr.Results, stats.NDC, len(res))
			}
			if len(tr.Steps) == 0 {
				t.Fatalf("%s: trace recorded no steps", name)
			}
		}
	}
}

// TestGoldenTrace locks the full trace of one fixed-seed query against
// testdata/golden_trace.json: step sequence, γ trajectory, per-step
// ranked/opened tallies and the NDC ledger. Wall-time fields are zeroed
// before comparison. Regenerate with: go test ./internal/core -run
// TestGoldenTrace -update. The query runs on both bodies of
// mat.AddRowsScaled, against the one file.
func TestGoldenTrace(t *testing.T) {
	mat.EachBody(func(body string) { t.Run(body, checkGoldenTrace) })
}

func checkGoldenTrace(t *testing.T) {
	// A dedicated tiny engine with pinned parameters, independent of
	// -short, so the golden file is valid in every test mode.
	spec := dataset.AIDS(0.001)
	db := spec.Generate()
	queries := dataset.Workload(db, spec, 10, 3)
	train, _, test := dataset.Split(queries)
	eng, err := Build(db, train, Options{
		M: 4, Dim: 6, GammaKNN: 4,
		Train: models.TrainOptions{Epochs: 2, LR: 0.01},
		Seed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTrace("golden")
	ctx := obs.With(context.Background(), tr)
	if _, _, err := eng.Search(ctx, test[0], SearchOptions{K: 3, Beam: 8, Initial: LANIS, Routing: LANRoute}); err != nil {
		t.Fatal(err)
	}

	// Zero the wall-time fields: they are the only nondeterminism in a
	// fixed-seed trace.
	tr.TotalUS = 0
	zeroSpanTimes(tr.Spans)
	got, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "golden_trace.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("trace diverged from golden (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// zeroSpanTimes clears the wall-clock fields of a span forest in place,
// leaving the structure (names, nesting, NDC, batch sizes) to compare.
func zeroSpanTimes(spans []*obs.Span) {
	for _, s := range spans {
		s.StartUS, s.US = 0, 0
		zeroSpanTimes(s.Children)
	}
}

// TestConcurrentTracedQueriesNoBleed runs traced searches for distinct
// queries concurrently and checks every trace against a solo rerun of its
// query: identical step sequence, identical γ
// trajectory, totals matching that query's own stats. Run under -race
// this also proves the recording path is data-race free.
func TestConcurrentTracedQueriesNoBleed(t *testing.T) {
	eng, _, _, test := buildEngine(t)
	so := SearchOptions{K: 3, Beam: 8, Initial: HNSWIS, Routing: LANRoute}

	type run struct {
		stats QueryStats
		trace *obs.Trace
	}
	runs := make([]run, len(test))
	var wg sync.WaitGroup
	for i := range test {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := obs.NewTrace("q")
			_, stats, err := eng.Search(obs.With(context.Background(), tr), test[i], so)
			if err == nil {
				runs[i] = run{stats: stats, trace: tr}
			}
		}(i)
	}
	wg.Wait()

	for i := range test {
		tr := runs[i].trace
		if tr == nil {
			t.Fatalf("query %d errored", i)
		}
		if tr.NDC != runs[i].stats.NDC {
			t.Errorf("query %d: trace NDC %d != stats NDC %d", i, tr.NDC, runs[i].stats.NDC)
		}
		_, _, solo := searchTraced(t, eng, test[i], so)
		if !reflect.DeepEqual(tr.Steps, solo.Steps) {
			t.Errorf("query %d: concurrent trace steps diverge from solo run (cross-query bleed?)", i)
		}
		if !reflect.DeepEqual(tr.Gammas, solo.Gammas) {
			t.Errorf("query %d: γ trajectory diverges from solo run", i)
		}
		if tr.Entry != solo.Entry {
			t.Errorf("query %d: entry %d != solo entry %d", i, tr.Entry, solo.Entry)
		}
	}
}

// TestRecordQueryExportsRankerCounters: a search's M_rk attribution —
// inferences run and memo hits — reaches the registry as the two
// lan_ranker_*_total counters, by exactly the amounts in its QueryStats.
func TestRecordQueryExportsRankerCounters(t *testing.T) {
	eng, _, _, test := buildEngine(t)
	m := obs.Query()
	inf, hits := m.RankerInferences.Value(), m.RankerMemoHits.Value()
	var wantInf, wantHits uint64
	for _, q := range test {
		_, stats, _ := eng.Search(context.Background(), q, SearchOptions{K: 5, Beam: 12, Initial: LANIS, Routing: LANRoute})
		wantInf += uint64(stats.RankerInferences)
		wantHits += uint64(stats.RankerMemoHits)
	}
	if wantHits == 0 {
		t.Fatalf("no search met a neighbour twice (%d inferences): the memo has no subject here", wantInf)
	}
	if got := m.RankerInferences.Value() - inf; got != wantInf {
		t.Errorf("lan_ranker_inferences_total moved by %d; searches ran %d", got, wantInf)
	}
	if got := m.RankerMemoHits.Value() - hits; got != wantHits {
		t.Errorf("lan_ranker_memo_hits_total moved by %d; searches hit %d", got, wantHits)
	}
}
