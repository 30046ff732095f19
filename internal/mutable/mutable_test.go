package mutable

import (
	"context"
	"sync"
	"testing"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/core"
	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/internal/models"
)

var fixture struct {
	once  sync.Once
	db    graph.Database
	train []*graph.Graph
	test  []*graph.Graph
}

// smallEngine builds a fresh engine per call — mutation tests must not
// share one — over a database and workload generated once.
func smallEngine(t *testing.T) (*core.Engine, graph.Database, []*graph.Graph) {
	t.Helper()
	f := &fixture
	f.once.Do(func() {
		spec := dataset.AIDS(0.002)
		f.db = spec.Generate()
		queries := dataset.Workload(f.db, spec, 12, 4)
		f.train, _, f.test = dataset.Split(queries)
	})
	eng, err := core.Build(f.db, f.train, core.Options{
		M: 4, Dim: 6, GammaKNN: 5,
		Train: models.TrainOptions{Epochs: 1, LR: 0.01},
		Seed:  3,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return eng, f.db, f.test
}

func newIndex(t *testing.T) (*Index, graph.Database, []*graph.Graph) {
	t.Helper()
	eng, db, test := smallEngine(t)
	x, err := New(eng, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { x.Close() })
	return x, db, test
}

func TestInsertDeleteEpochsAndCounts(t *testing.T) {
	x, db, test := newIndex(t)

	if x.Epoch() != 0 || x.Len() != len(db) || x.Total() != len(db) {
		t.Fatalf("fresh index: epoch %d, len %d, total %d", x.Epoch(), x.Len(), x.Total())
	}

	id, err := x.Insert(test[0])
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if id != len(db) {
		t.Fatalf("insert id = %d; want %d (ids are append-only)", id, len(db))
	}
	if x.Epoch() == 0 {
		t.Fatal("insert did not advance the epoch")
	}
	if x.Len() != len(db)+1 || x.Total() != len(db)+1 {
		t.Fatalf("after insert: len %d, total %d", x.Len(), x.Total())
	}
	// The insert must not have mutated the caller's graph.
	if test[0].ID == id {
		t.Fatal("Insert re-labeled the caller's graph in place")
	}

	before := x.Epoch()
	if err := x.Delete(0); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if x.Epoch() <= before {
		t.Fatal("delete did not advance the epoch")
	}
	if x.Len() != len(db) || x.Total() != len(db)+1 {
		t.Fatalf("after delete: len %d, total %d (husk must stay in the id space)", x.Len(), x.Total())
	}

	if err := x.Delete(0); err == nil {
		t.Fatal("double delete accepted")
	}
	if err := x.Delete(-1); err == nil {
		t.Fatal("negative id accepted")
	}
	if err := x.Delete(x.Total()); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	if _, err := x.Insert(nil); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	x, db, test := newIndex(t)
	q := test[0]

	pinned := x.Snapshot()
	wantRes, wantStats, _ := pinned.Engine.Search(context.Background(), q, core.SearchOptions{K: 3, Beam: 10})

	// Land a burst of writes, each repairing the edges it disturbed.
	for _, g := range test {
		if _, err := x.Insert(g); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < 3; id++ {
		if err := x.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	// The pinned snapshot is frozen: same epoch, same size, and queries
	// against it are bit-identical to the pre-write run.
	if pinned.Epoch != 0 || pinned.Live != len(db) || len(pinned.Engine.DB) != len(db) {
		t.Fatalf("pinned snapshot drifted: epoch %d, live %d, db %d", pinned.Epoch, pinned.Live, len(pinned.Engine.DB))
	}
	gotRes, gotStats, _ := pinned.Engine.Search(context.Background(), q, core.SearchOptions{K: 3, Beam: 10})
	if len(gotRes) != len(wantRes) {
		t.Fatalf("pinned search changed arity: %d vs %d", len(gotRes), len(wantRes))
	}
	for i := range wantRes {
		if gotRes[i] != wantRes[i] {
			t.Fatalf("pinned search result %d changed: %+v != %+v", i, gotRes[i], wantRes[i])
		}
	}
	if gotStats.NDC != wantStats.NDC {
		t.Fatalf("pinned search NDC changed: %d != %d", gotStats.NDC, wantStats.NDC)
	}

	// The current snapshot sees the writes: deleted ids never surface.
	cur := x.Snapshot()
	if cur.Epoch == 0 || cur.Live != len(db)+len(test)-3 {
		t.Fatalf("current snapshot: epoch %d, live %d", cur.Epoch, cur.Live)
	}
	res, _, _ := cur.Engine.Search(context.Background(), q, core.SearchOptions{K: 5, Beam: 12})
	for _, r := range res {
		if r.ID < 3 {
			t.Fatalf("deleted graph %d surfaced in results: %+v", r.ID, res)
		}
	}
}

func TestCompactDetachesHusksAndRescuesEntry(t *testing.T) {
	x, _, _ := newIndex(t)

	// Tombstone the HNSW entry plus a couple more vertices.
	entry := x.eng.Index.Entry
	victims := map[int]bool{entry: true, (entry + 1) % x.Total(): true, (entry + 2) % x.Total(): true}
	for id := range victims {
		if err := x.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	detached, err := x.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if detached != len(victims) {
		t.Fatalf("Compact detached %d; want %d", detached, len(victims))
	}
	snap := x.Snapshot()
	h := snap.Engine.Index
	for id := range victims {
		if len(h.PG.Adj[id]) != 0 {
			t.Fatalf("husk %d keeps edges after Compact: %v", id, h.PG.Adj[id])
		}
	}
	for v, ns := range h.PG.Adj {
		for _, w := range ns {
			if victims[w] {
				t.Fatalf("node %d still points at detached husk %d", v, w)
			}
		}
	}
	if victims[h.Entry] {
		t.Fatalf("entry %d not rescued off the detached husk", h.Entry)
	}
	if len(h.PG.Adj[h.Entry]) == 0 {
		t.Fatalf("rescued entry %d is edgeless", h.Entry)
	}

	// Compacting again is a no-op: no husk has edges left.
	epoch := x.Epoch()
	again, err := x.Compact()
	if err != nil || again != 0 {
		t.Fatalf("second Compact = (%d, %v); want (0, nil)", again, err)
	}
	if x.Epoch() != epoch {
		t.Fatal("no-op Compact advanced the epoch")
	}
}

func TestCloseIdempotentAndRejectsWrites(t *testing.T) {
	x, _, test := newIndex(t)
	if _, err := x.Insert(test[0]); err != nil {
		t.Fatal(err)
	}
	if err := x.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := x.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := x.Insert(test[1]); err == nil {
		t.Fatal("Insert accepted after Close")
	}
	if err := x.Delete(0); err == nil {
		t.Fatal("Delete accepted after Close")
	}
	if _, err := x.Compact(); err == nil {
		t.Fatal("Compact accepted after Close")
	}
	// Reads keep working off the last snapshot.
	snap := x.Snapshot()
	if snap == nil || snap.Live == 0 {
		t.Fatal("closed index lost its read view")
	}
	if res, _, _ := snap.Engine.Search(context.Background(), test[0], core.SearchOptions{K: 3, Beam: 10}); len(res) == 0 {
		t.Fatal("closed index stopped answering reads")
	}
}

func TestNewValidatesMutationState(t *testing.T) {
	eng, db, _ := smallEngine(t)
	st := &core.MutationState{
		Epoch: 2,
		Born:  make([]uint64, len(db)-1), // wrong length
		Died:  make([]uint64, len(db)),
	}
	if _, err := New(eng, st); err == nil {
		t.Fatal("mismatched validity stamps accepted")
	}

	st.Born = make([]uint64, len(db))
	st.Died[0] = 1
	x, err := New(eng, st)
	if err != nil {
		t.Fatalf("New with state: %v", err)
	}
	defer x.Close()
	if x.Epoch() != 2 || x.Len() != len(db)-1 {
		t.Fatalf("restored: epoch %d, len %d", x.Epoch(), x.Len())
	}
	if err := x.Delete(0); err == nil {
		t.Fatal("restored tombstone came back alive")
	}
}
