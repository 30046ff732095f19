package mutable

import (
	"path/filepath"
	"reflect"
	"testing"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/cg"
	"github.com/lansearch/lan/internal/core"
	"github.com/lansearch/lan/internal/models"
)

// checkRankerMemo walks the engine's proximity graph breadth-first from
// start — consecutive nodes share neighbours, as a routing trajectory's
// do — and holds one search-long ranker, which scores a neighbour met
// again from its memo, to a ranker made afresh for every call, which
// infers everything: the batches must be the same, call for call.
// (internal/models pins the kernels themselves to the reference.)
func checkRankerMemo(t *testing.T, tier string, eng *core.Engine, q *graph.Graph, start int) {
	t.Helper()
	p := eng.Index.PG
	walk, seen := []int{start}, map[int]bool{start: true}
	for i := 0; i < len(walk) && len(walk) < 30; i++ {
		for _, nb := range p.Neighbors(walk[i]) {
			if !seen[nb] {
				seen[nb] = true
				walk = append(walk, nb)
			}
		}
	}
	qc := eng.Store.Query(q)
	var rs models.RankerStats
	memo := eng.Mrk.Ranker(cg.NewWorkspace(), eng.DB, q, qc, &rs)
	for _, node := range walk {
		neighbors := p.Neighbors(node)
		fresh := eng.Mrk.Ranker(cg.NewWorkspace(), eng.DB, q, qc, nil)
		if got, want := memo.Batches(node, neighbors, 0), fresh.Batches(node, neighbors, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, node %d: batches with the memo %v; without %v", tier, node, got, want)
		}
	}
	if rs.MemoHits == 0 {
		t.Fatalf("%s: a walk over %d nodes never met a neighbour twice (%d inferences)", tier, len(walk), rs.Inferences)
	}
}

// TestRankerMemoBitIdenticalAcrossTiers: the per-search memo changes no
// batch on a built engine, on one reopened from its snapshot (embeddings
// and graphs decoded from the file), nor on a mutable index after an
// insert and a delete (the snapshot view's extended embedding table, a
// tombstoned neighbour).
func TestRankerMemoBitIdenticalAcrossTiers(t *testing.T) {
	eng, db, test := smallEngine(t)
	checkRankerMemo(t, "built", eng, test[0], eng.Index.Entry)

	path := filepath.Join(t.TempDir(), "memo.lansnap")
	if err := core.SaveSnapshotV3(path, eng, nil); err != nil {
		t.Fatalf("SaveSnapshotV3: %v", err)
	}
	reopened, _, err := core.OpenSnapshotV3(path, core.Options{})
	if err != nil {
		t.Fatalf("OpenSnapshotV3: %v", err)
	}
	checkRankerMemo(t, "reopened", reopened, test[0], reopened.Index.Entry)

	x, err := New(eng, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer x.Close()
	id, err := x.Insert(test[1])
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	// Tombstone a neighbour of the inserted graph: it stays in the
	// adjacency and keeps being ranked until compaction.
	view := x.Snapshot().Engine
	neighbors := view.Index.PG.Neighbors(id)
	if len(neighbors) == 0 {
		t.Fatalf("inserted graph %d has no neighbours", id)
	}
	if err := x.Delete(neighbors[0]); err != nil {
		t.Fatalf("Delete(%d): %v", neighbors[0], err)
	}
	if id != len(db) {
		t.Fatalf("insert id %d; want %d", id, len(db))
	}
	checkRankerMemo(t, "mutable", x.Snapshot().Engine, test[0], id)
}
