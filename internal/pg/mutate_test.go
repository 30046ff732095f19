package pg

import (
	"slices"
	"testing"

	"github.com/lansearch/lan/graph"
)

// incrementalIndex builds an HNSW over the first built of db's graphs and
// wires the rest in through its write path, returning the index and the id
// the incremental phase started at.
func incrementalIndex(t *testing.T, db graph.Database, built int) (*HNSW, int) {
	t.Helper()
	h, err := Build(db[:built], BuildConfig{M: 6, EfConstruction: 16, Seed: 1})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	h.PG.DB = db // the database grows first; the graph catches up per insert
	h.Arm(nil, 6)
	for id := built; id < len(db); id++ {
		h.Insert(id, DeterministicLevel(1, id, 6))
	}
	return h, built
}

func TestDeterministicLevelProperties(t *testing.T) {
	// Same (seed, id, m) always gives the same level, independent of call
	// order or history.
	for _, id := range []int{0, 1, 7, 1000, 1 << 20} {
		a := DeterministicLevel(42, id, 8)
		b := DeterministicLevel(42, id, 8)
		if a != b || a < 0 {
			t.Fatalf("id %d: levels %d, %d", id, a, b)
		}
	}
	// The distribution matches batch construction's exponential: most ids
	// land on the base layer, and high levels are rare.
	counts := map[int]int{}
	for id := 0; id < 4096; id++ {
		counts[DeterministicLevel(7, id, 8)]++
	}
	if frac := float64(counts[0]) / 4096; frac < 0.7 {
		t.Fatalf("level-0 fraction = %.2f; want the exponential's bulk", frac)
	}
	if len(counts) < 2 {
		t.Fatal("no id ever left the base layer")
	}
	// Different seeds reshuffle the hierarchy.
	same := 0
	for id := 0; id < 256; id++ {
		if DeterministicLevel(1, id, 8) == DeterministicLevel(2, id, 8) {
			same++
		}
	}
	if same == 256 {
		t.Fatal("levels identical across seeds")
	}
}

func TestMutatorInsertPreservesInvariants(t *testing.T) {
	db := clusteredDB(3, 8, 8)
	h, _ := incrementalIndex(t, db, len(db)/2)

	if err := h.PG.Validate(); err != nil {
		t.Fatalf("Validate after incremental inserts: %v", err)
	}
	if h.PG.Len() != len(db) {
		t.Fatalf("Len = %d; want %d", h.PG.Len(), len(db))
	}
	// Degree caps hold for incremental insertions exactly as for batch.
	for u, ns := range h.PG.Adj {
		if len(ns) > 12 {
			t.Fatalf("node %d degree %d > 2M", u, len(ns))
		}
		if len(ns) == 0 {
			t.Fatalf("node %d wired with no edges", u)
		}
	}
	for l, up := range h.Upper {
		for u, ns := range up {
			if len(ns) > 6 {
				t.Fatalf("layer %d node %d degree %d > M", l+1, u, len(ns))
			}
		}
	}
	// The base layer stays one connected component: routing can reach
	// every inserted node.
	seen := make([]bool, len(db))
	stack := []int{h.Entry}
	seen[h.Entry] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range h.PG.Adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	if count != len(db) {
		t.Fatalf("layer 0 has %d reachable of %d after inserts", count, len(db))
	}
}

func TestMutatorCopyOnWrite(t *testing.T) {
	db := clusteredDB(5, 6, 8)
	built := len(db) - 8
	h, err := Build(db[:built], BuildConfig{M: 6, EfConstruction: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h.PG.DB = db
	h.Arm(nil, 6)

	// A reader's snapshot: the outer slice copied, the inner neighbor
	// slices shared. COW requires those inner slices to stay frozen.
	pinned := make([][]int, built)
	copy(pinned, h.PG.Adj)
	want := make([][]int, built)
	for u, ns := range pinned {
		want[u] = append([]int(nil), ns...)
	}

	for id := built; id < len(db); id++ {
		h.Insert(id, DeterministicLevel(1, id, 6))
	}
	for u := 0; u < built/2; u++ {
		h.Reselect(u)
	}
	h.Detach(built, func(v int) bool { return v != built })

	for u := range pinned {
		if len(pinned[u]) != len(want[u]) {
			t.Fatalf("node %d: pinned slice header changed length", u)
		}
		for i := range pinned[u] {
			if pinned[u][i] != want[u][i] {
				t.Fatalf("node %d: pinned neighbors edited in place (%v != %v)", u, pinned[u], want[u])
			}
		}
	}
}

func TestMutatorDetachBridgesAndStrips(t *testing.T) {
	db := clusteredDB(9, 6, 8)
	h, _ := incrementalIndex(t, db, len(db)/2)

	u := h.Entry // hardest case: detach the entry vertex
	liveNeighbors := append([]int(nil), h.PG.Adj[u]...)
	h.Detach(u, func(v int) bool { return v != u })

	if len(h.PG.Adj[u]) != 0 {
		t.Fatalf("detached node keeps base edges: %v", h.PG.Adj[u])
	}
	for l, up := range h.Upper {
		if _, ok := up[u]; ok {
			t.Fatalf("detached node still on layer %d", l+1)
		}
		for v, ns := range up {
			for _, w := range ns {
				if w == u {
					t.Fatalf("layer %d node %d still points at detached %d", l+1, v, u)
				}
			}
		}
	}
	for v, ns := range h.PG.Adj {
		for _, w := range ns {
			if w == u {
				t.Fatalf("node %d still points at detached %d", v, u)
			}
		}
	}
	if err := h.PG.Validate(); err != nil {
		t.Fatalf("Validate after Detach: %v", err)
	}
	// The ex-neighbors were bridged pairwise (subject to degree caps), so
	// none of them is stranded.
	for _, v := range liveNeighbors {
		if len(h.PG.Adj[v]) == 0 {
			t.Fatalf("ex-neighbor %d stranded by Detach", v)
		}
	}
}

func TestMutatorReselectKeepsEveryoneConnected(t *testing.T) {
	db := clusteredDB(11, 6, 8)
	h, _ := incrementalIndex(t, db, len(db)/2)

	ndc := 0
	for u := range h.PG.Adj {
		ndc += h.Reselect(u)
	}
	if ndc <= 0 {
		t.Fatal("Reselect charged no distance computations")
	}
	if err := h.PG.Validate(); err != nil {
		t.Fatalf("Validate after Reselect sweep: %v", err)
	}
	for u, ns := range h.PG.Adj {
		if len(ns) == 0 {
			t.Fatalf("node %d stranded by Reselect (connectivity guard failed)", u)
		}
		if len(ns) > 12 {
			t.Fatalf("node %d degree %d > 2M after Reselect", u, len(ns))
		}
	}
}

func TestTrackAliveSurvivesBeamEviction(t *testing.T) {
	// A neighborhood dense with tombstones can fill the whole beam with
	// dead candidates; live answers evicted by Resize must still surface.
	dead := make([]bool, 10)
	for id := 0; id < 8; id++ {
		dead[id] = true // 0..7 tombstoned, 8 and 9 live
	}
	p := NewPool(2, dead)
	p.Add(8, 50)
	p.Add(9, 60)
	for id := 0; id < 8; id++ {
		p.Add(id, float64(id)) // much closer, all dead
	}
	p.Resize(4) // beam now holds only dead candidates
	got := p.TopKAlive()
	if len(got) != 2 || got[0] != (Result{ID: 8, Dist: 50}) || got[1] != (Result{ID: 9, Dist: 60}) {
		t.Fatalf("TopKAlive after eviction = %+v; want live 8, 9", got)
	}
	// Re-adding an evicted live candidate must not duplicate it.
	p.Add(8, 50)
	if got := p.TopKAlive(); len(got) != 2 || got[0].ID != 8 || got[1].ID != 9 {
		t.Fatalf("TopKAlive after re-add = %+v", got)
	}
}

func TestTopKAliveFiltersTombstones(t *testing.T) {
	dists := []float64{5, 1, 3, 2, 4}
	dead := []bool{false, true, false, false, false} // kill the closest
	p := NewPool(2, dead)
	for id, d := range dists {
		p.Add(id, d)
	}
	if got := p.TopKAlive(); len(got) != 2 || got[0].ID != 3 || got[1].ID != 2 {
		t.Fatalf("TopKAlive = %+v; want ids 3, 2", got)
	}
	// nil dead must be byte-for-byte the plain top-k of W.
	plain := NewPool(2, nil)
	for id, d := range dists {
		plain.Add(id, d)
	}
	if got, want := plain.TopKAlive(), topK(plain.items, 2); !slices.Equal(got, want) || len(want) != 2 {
		t.Fatalf("nil-dead TopKAlive = %+v; want top-k %+v", got, want)
	}
}
