package lan

import (
	"sync"
	"testing"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/internal/pg"
)

// buildMutableIndex is a cheap fixture for the write-path tests: small
// enough to build under -short (the churn tests below must run under
// `go test -race -short`).
func buildMutableIndex(t *testing.T) (*Index, graph.Database, []*graph.Graph) {
	t.Helper()
	spec := dataset.AIDS(0.002)
	db := spec.Generate()
	queries := dataset.Workload(db, spec, 12, 4)
	train, _, test := dataset.Split(queries)
	idx, err := Build(db, train, Options{M: 4, Dim: 6, GammaKNN: 5, Epochs: 1, Seed: 5})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	t.Cleanup(func() { idx.Close() })
	return idx, db, test
}

// TestMutableChurn runs searches, inserts and deletes concurrently; under
// -race this is the data-race proof for the whole write path (COW
// publication, epoch bumps, the background optimizer).
func TestMutableChurn(t *testing.T) {
	idx, db, test := buildMutableIndex(t)

	const searchers = 4
	var wg sync.WaitGroup

	// Writers: one goroutine streaming inserts, one streaming deletes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3*len(test); i++ {
			if _, err := idx.Insert(test[i%len(test)]); err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Delete ids that existed before the churn started; every delete
		// must land exactly once.
		for id := 0; id < len(db)/2; id++ {
			if err := idx.Delete(id); err != nil {
				t.Errorf("Delete(%d): %v", id, err)
				return
			}
		}
	}()

	for s := 0; s < searchers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := test[(s+i)%len(test)]
				res, stats, err := idx.Search(q, SearchOptions{K: 3, Beam: 10})
				if err != nil {
					t.Errorf("Search: %v", err)
					return
				}
				if len(res) == 0 || stats.NDC <= 0 {
					t.Errorf("search returned nothing mid-churn: %v %+v", res, stats)
					return
				}
				for j := 1; j < len(res); j++ {
					if res[j-1].Dist > res[j].Dist {
						t.Errorf("unsorted results mid-churn: %v", res)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()

	idx.Quiesce()
	if got, want := idx.Len(), len(db)+3*len(test)-len(db)/2; got != want {
		t.Fatalf("Len after churn = %d; want %d", got, want)
	}
	if idx.Epoch() == 0 {
		t.Fatal("churn left the epoch at 0")
	}
	if _, err := idx.Compact(); err != nil {
		t.Fatalf("Compact after churn: %v", err)
	}
	if err := idx.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := idx.Insert(test[0]); err == nil {
		t.Fatal("Insert accepted after Close")
	}
}

// TestPinnedSnapshotStableUnderWrites pins one read view and hammers the
// index with writes while repeatedly re-running the same query against
// the pin: every answer (ids, distances, NDC) must be bit-identical to
// the pre-write run.
func TestPinnedSnapshotStableUnderWrites(t *testing.T) {
	idx, _, test := buildMutableIndex(t)
	q := test[0]

	pinned := idx.Snapshot()
	wantRes, wantStats, err := pinned.Search(q, SearchOptions{K: 3, Beam: 10})
	if err != nil {
		t.Fatal(err)
	}
	wantEpoch, wantLen := pinned.Epoch(), pinned.Len()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, g := range test {
			if _, err := idx.Insert(g); err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
			if err := idx.Delete(i); err != nil {
				t.Errorf("Delete: %v", err)
				return
			}
		}
	}()

	for i := 0; i < 30; i++ {
		res, stats, err := pinned.Search(q, SearchOptions{K: 3, Beam: 10})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(wantRes) || stats.NDC != wantStats.NDC {
			t.Fatalf("pinned search drifted mid-write: %d results NDC %d; want %d results NDC %d",
				len(res), stats.NDC, len(wantRes), wantStats.NDC)
		}
		for j := range wantRes {
			if res[j] != wantRes[j] {
				t.Fatalf("pinned result %d drifted: %+v != %+v", j, res[j], wantRes[j])
			}
		}
	}
	<-done

	if pinned.Epoch() != wantEpoch || pinned.Len() != wantLen {
		t.Fatalf("pinned view moved: epoch %d->%d, len %d->%d", wantEpoch, pinned.Epoch(), wantLen, pinned.Len())
	}
	if idx.Epoch() == wantEpoch {
		t.Fatal("writes landed but the live epoch never moved")
	}
}

// TestIncrementalBuildRecallMatchesBatch pins the quality contract of
// streaming inserts: building a prefix and streaming in the rest (then
// quiescing the optimizer) must reach at least the recall of a batch
// build over the full database. Both sides route with the model-free
// strategies so the comparison isolates proximity-graph quality.
func TestIncrementalBuildRecallMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode: builds two indexes and brute-force ground truth")
	}
	spec := dataset.AIDS(0.003)
	db := spec.Generate()
	queries := dataset.Workload(db, spec, 16, 5)
	train, _, test := dataset.Split(queries)
	opts := Options{M: 5, Dim: 8, GammaKNN: 5, Epochs: 1, Seed: 7}

	batch, err := Build(db, train, opts)
	if err != nil {
		t.Fatalf("batch Build: %v", err)
	}
	defer batch.Close()

	prefix := len(db) * 3 / 4
	incr, err := Build(db[:prefix], train, opts)
	if err != nil {
		t.Fatalf("prefix Build: %v", err)
	}
	defer incr.Close()
	for _, g := range db[prefix:] {
		if _, err := incr.Insert(g); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	incr.Quiesce()
	if incr.Len() != len(db) {
		t.Fatalf("incremental Len = %d; want %d", incr.Len(), len(db))
	}

	metric := ged.MetricFunc(ged.Hungarian)
	so := SearchOptions{K: 5, Beam: 24, Initial: HNSWIS, Routing: BaselineRoute}
	var batchRecall, incrRecall float64
	for _, q := range test {
		truth := dataset.BruteForceKNN(db, q, metric, 5)
		bres, _, err := batch.Search(q, so)
		if err != nil {
			t.Fatal(err)
		}
		ires, _, err := incr.Search(q, so)
		if err != nil {
			t.Fatal(err)
		}
		batchRecall += dataset.Recall(toPGResults(bres), truth)
		incrRecall += dataset.Recall(toPGResults(ires), truth)
	}
	batchRecall /= float64(len(test))
	incrRecall /= float64(len(test))
	t.Logf("recall@5: batch %.3f, incremental %.3f", batchRecall, incrRecall)
	if incrRecall < batchRecall {
		t.Fatalf("incremental build lost recall: %.3f < batch %.3f", incrRecall, batchRecall)
	}
	if incrRecall < 0.7 {
		t.Fatalf("incremental recall@5 = %.3f; floor is 0.7", incrRecall)
	}
}

// TestDeleteEveryGraph drains an index completely with deletes: it keeps
// answering, with no results and no error, instead of routing from an
// entry node that is gone.
func TestDeleteEveryGraph(t *testing.T) {
	spec := dataset.AIDS(0.002)
	db := spec.Generate()
	queries := dataset.Workload(db, spec, 8, 3)
	part := db[:20]
	idx, err := Build(part, queries, Options{M: 4, Dim: 6, GammaKNN: 5, Epochs: 1, Seed: 6})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer idx.Close()

	for id := range part {
		if err := idx.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
	}
	if idx.Len() != 0 || idx.Epoch() == 0 {
		t.Fatalf("after deleting every graph: Len = %d, Epoch = %d; want 0 and > 0", idx.Len(), idx.Epoch())
	}
	for qi, q := range queries {
		res, _, err := idx.Search(q, SearchOptions{K: 3, Beam: 12})
		if err != nil || len(res) != 0 {
			t.Fatalf("query %d against an empty index: res = %v, err = %v; want none and nil", qi, res, err)
		}
	}
}

func toPGResults(res []Result) []pg.Result {
	out := make([]pg.Result, len(res))
	for i, r := range res {
		out[i] = pg.Result{ID: r.ID, Dist: r.Dist}
	}
	return out
}
