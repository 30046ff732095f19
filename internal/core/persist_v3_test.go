package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/lansearch/lan/internal/lanstore"
	"github.com/lansearch/lan/internal/obs"
)

// saveV3 writes the fixture engine as a v3 snapshot and returns its path.
func saveV3(t *testing.T, e *Engine, quant lanstore.Quant) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "idx.lansnap")
	if err := SaveSnapshotV3(path, e, nil, quant); err != nil {
		t.Fatalf("SaveSnapshotV3(%s): %v", quant, err)
	}
	return path
}

// openV3Tier opens a v3 snapshot on the given tier with the fixture's
// (default) metrics and registers cleanup.
func openV3Tier(t *testing.T, path string, mmap bool) *Engine {
	t.Helper()
	eng, _, store, err := OpenSnapshotV3(path, Options{}, mmap)
	if err != nil {
		t.Fatalf("OpenSnapshotV3(mmap=%v): %v", mmap, err)
	}
	if store != nil {
		t.Cleanup(func() { store.Close() })
	}
	return eng
}

// comparableStats strips the wall-time fields, which legitimately differ
// between runs; everything else — NDC and its per-stage split, explored
// nodes, ranker calls, batch/γ accounting, cache hits — must be
// bit-identical between storage tiers.
func comparableStats(s QueryStats) QueryStats {
	s.DistTime, s.ModelTime, s.InitTime, s.RouteTime, s.Total = 0, 0, 0, 0, 0
	return s
}

// TestSnapshotV3MMapBitIdentity pins the storage-tier contract: a
// full-precision snapshot answers every query bit-identically on the RAM
// and mmap tiers — results (ids and exact distances), the whole NDC and
// routing accounting, and the routing trajectory (entry node, explored
// steps, γ trajectory) — under every initial/routing strategy. Run under -race in CI, this doubles as the
// concurrency-safety check of the mmap fetch path.
func TestSnapshotV3MMapBitIdentity(t *testing.T) {
	eng, _, _, test := buildEngine(t)
	path := saveV3(t, eng, lanstore.QuantF64)
	ram := openV3Tier(t, path, false)
	mm := openV3Tier(t, path, true)

	if _, ok := mm.Graphs.(*lanstore.Store); !ok {
		t.Fatalf("mmap engine fetches from %T; want *lanstore.Store", mm.Graphs)
	}
	if _, ok := ram.Graphs.(*lanstore.Store); ok {
		t.Fatal("ram engine still fetches from the snapshot store")
	}

	strategies := []struct {
		is InitialStrategy
		rt RoutingStrategy
	}{
		{LANIS, LANRoute},
		{LANIS, BaselineRoute},
		{LANIS, OracleRoute},
		{HNSWIS, LANRoute},
		{RandIS, LANRoute},
		{LANISBasic, LANRoute},
	}
	if testing.Short() {
		strategies = strategies[:2]
	}

	for _, st := range strategies {
		so := SearchOptions{K: 5, Beam: 10, Initial: st.is, Routing: st.rt}
		for qi, q := range test {
			ramTrace, mmTrace := obs.NewTrace("ram"), obs.NewTrace("mmap")
			ramRes, ramStats, err := ram.Search(obs.With(context.Background(), ramTrace), q, so)
			if err != nil {
				t.Fatal(err)
			}
			mmRes, mmStats, err := mm.Search(obs.With(context.Background(), mmTrace), q, so)
			if err != nil {
				t.Fatal(err)
			}
			tag := st.is.String() + "/" + st.rt.String()
			if !reflect.DeepEqual(ramRes, mmRes) {
				t.Fatalf("%s query %d: results diverge\nram:  %v\nmmap: %v", tag, qi, ramRes, mmRes)
			}
			if a, b := comparableStats(ramStats), comparableStats(mmStats); a != b {
				t.Fatalf("%s query %d: stats diverge\nram:  %+v\nmmap: %+v", tag, qi, a, b)
			}
			if ramTrace.Entry != mmTrace.Entry ||
				!reflect.DeepEqual(ramTrace.Steps, mmTrace.Steps) ||
				!reflect.DeepEqual(ramTrace.Gammas, mmTrace.Gammas) {
				t.Fatalf("%s query %d: routing trajectories diverge\nram:  entry=%d steps=%v gammas=%v\nmmap: entry=%d steps=%v gammas=%v",
					tag, qi,
					ramTrace.Entry, ramTrace.Steps, ramTrace.Gammas,
					mmTrace.Entry, mmTrace.Steps, mmTrace.Gammas)
			}
		}
	}
}

// TestSnapshotV3RAMMatchesOriginal pins that materializing a snapshot
// reproduces the engine that wrote it: same answers, same NDC.
func TestSnapshotV3RAMMatchesOriginal(t *testing.T) {
	eng, _, _, test := buildEngine(t)
	ram := openV3Tier(t, saveV3(t, eng, lanstore.QuantF64), false)
	so := SearchOptions{K: 5, Beam: 10}
	for qi, q := range test {
		wantRes, wantStats, _ := eng.Search(context.Background(), q, so)
		gotRes, gotStats, _ := ram.Search(context.Background(), q, so)
		if !reflect.DeepEqual(wantRes, gotRes) {
			t.Fatalf("query %d: results differ from the engine that wrote the snapshot", qi)
		}
		if comparableStats(wantStats) != comparableStats(gotStats) {
			t.Fatalf("query %d: stats differ from the engine that wrote the snapshot", qi)
		}
	}
}

// TestSnapshotV3QuantizedDistancesExact pins the quantization semantics:
// storing M_rk's embeddings at reduced precision may only perturb the
// learned neighbor ranking — every distance in the results must still be
// the exact float64 GED, on both tiers, and both tiers must agree with
// each other bit-for-bit (they decode the same stored embeddings).
func TestSnapshotV3QuantizedDistancesExact(t *testing.T) {
	eng, _, db, test := buildEngine(t)
	so := SearchOptions{K: 5, Beam: 10}

	f64Ram := openV3Tier(t, saveV3(t, eng, lanstore.QuantF64), false)
	for _, quant := range []lanstore.Quant{lanstore.QuantF32, lanstore.QuantInt8} {
		path := saveV3(t, eng, quant)
		ram := openV3Tier(t, path, false)
		mm := openV3Tier(t, path, true)

		var overlap, n float64
		for qi, q := range test {
			ramRes, ramStats, _ := ram.Search(context.Background(), q, so)
			mmRes, mmStats, _ := mm.Search(context.Background(), q, so)
			if !reflect.DeepEqual(ramRes, mmRes) || comparableStats(ramStats) != comparableStats(mmStats) {
				t.Fatalf("%s query %d: tiers diverge at the same quantization", quant, qi)
			}
			for _, r := range ramRes {
				if exact := ram.Opts.QueryMetric.Distance(db[r.ID], q); r.Dist != exact {
					t.Fatalf("%s query %d: result %d carries dist %v; exact GED is %v",
						quant, qi, r.ID, r.Dist, exact)
				}
			}
			f64Res, _, _ := f64Ram.Search(context.Background(), q, so)
			ids := make(map[int]bool, len(ramRes))
			for _, r := range ramRes {
				ids[r.ID] = true
			}
			for _, r := range f64Res {
				if ids[r.ID] {
					overlap++
				}
				n++
			}
		}
		if eps := 1 - overlap/n; eps > 0.5 {
			t.Fatalf("%s: recall epsilon vs full precision = %.3f; quantization should only nudge the ranking", quant, eps)
		} else {
			t.Logf("%s: recall epsilon vs full precision = %.3f", quant, eps)
		}
	}
}

// TestSaveSnapshotV3RejectsHuskEngine: an engine serving off an mmap
// store has no materialized database to serialize; re-saving it must be
// a named error, not a snapshot full of nil graphs.
func TestSaveSnapshotV3RejectsHuskEngine(t *testing.T) {
	eng, _, _, _ := buildEngine(t)
	mm := openV3Tier(t, saveV3(t, eng, lanstore.QuantF64), true)
	err := SaveSnapshotV3(filepath.Join(t.TempDir(), "again.lansnap"), mm, nil, lanstore.QuantF64)
	if err == nil {
		t.Fatal("re-saving an mmap-backed engine succeeded")
	}
}

// TestOpenSnapshotV3RejectsJSONIndex: the binary opener must identify a
// JSON index file as not-a-snapshot by name, not choke on it.
func TestOpenSnapshotV3RejectsJSONIndex(t *testing.T) {
	eng, _, _, _ := buildEngine(t)
	path := filepath.Join(t.TempDir(), "idx.lan")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for _, mmap := range []bool{false, true} {
		if _, _, _, err := OpenSnapshotV3(path, Options{}, mmap); !errors.Is(err, lanstore.ErrNotSnapshot) {
			t.Fatalf("mmap=%v: err = %v; want ErrNotSnapshot", mmap, err)
		}
	}
}
