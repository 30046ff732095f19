package pg

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
)

// clusteredDB builds a database of c clusters: each cluster is a seed
// molecule plus per-cluster mutants, so the GED landscape has genuine
// neighborhood structure.
func clusteredDB(seed int64, clusters, perCluster int) graph.Database {
	gen := graph.NewGenerator(seed)
	labels := []string{"C", "N", "O", "S"}
	var gs []*graph.Graph
	for c := 0; c < clusters; c++ {
		base := gen.MoleculeLike(10+c%6, 1, labels, 0.4)
		gs = append(gs, base)
		for i := 1; i < perCluster; i++ {
			gs = append(gs, gen.Mutate(base, 1+i%3, labels))
		}
	}
	return graph.NewDatabase(gs)
}

func buildTestIndex(t *testing.T, db graph.Database) *HNSW {
	t.Helper()
	h, err := Build(db, BuildConfig{M: 6, EfConstruction: 16, Seed: 1})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return h
}

func TestBuildValidatesAndConnects(t *testing.T) {
	db := clusteredDB(1, 8, 8)
	h := buildTestIndex(t, db)
	if err := h.PG.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if h.PG.Len() != len(db) {
		t.Fatalf("Len = %d; want %d", h.PG.Len(), len(db))
	}
	// Base layer must be a single connected component for routing to be
	// able to reach everything (overwhelmingly likely with M=6).
	seen := make([]bool, len(db))
	stack := []int{0}
	seen[0] = true
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
		t.Fatalf("layer 0 has %d reachable of %d", count, len(db))
	}
	// Degree caps respected.
	for u, ns := range h.PG.Adj {
		if len(ns) > 12 {
			t.Fatalf("node %d degree %d > 2M", u, len(ns))
		}
	}
	for l, up := range h.Upper {
		for u, ns := range up {
			if len(ns) > 6 {
				t.Fatalf("layer %d node %d degree %d > M", l+1, u, len(ns))
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, BuildConfig{}); err == nil {
		t.Fatal("no error for empty database")
	}
	g := graph.New(5) // wrong ID
	g.AddNode("A")
	if _, err := Build(graph.Database{g}, BuildConfig{}); err == nil {
		t.Fatal("no error for unnumbered database")
	}
}

func TestDistCacheCountsOnce(t *testing.T) {
	db := clusteredDB(5, 2, 3)
	calls := 0
	metric := ged.MetricFunc(func(a, b *graph.Graph) float64 {
		calls++
		return ged.VJ(a, b)
	})
	q := db[0]
	c := NewDistCache(metric, db, q)
	c.Dist(1)
	c.Dist(1)
	c.Dist(2)
	if calls != 2 || c.NDC() != 2 {
		t.Fatalf("calls=%d NDC=%d; want 2, 2", calls, c.NDC())
	}
	if !c.Known(1) || c.Known(3) {
		t.Fatalf("Known wrong")
	}
}

func TestPoolTieBreaking(t *testing.T) {
	p := NewPool(3, nil)
	// byPriority ranks the pool's items under the resize order (Resize
	// itself only partitions, it no longer promises sorted items).
	byPriority := func() []Candidate {
		s := append([]Candidate(nil), p.items...)
		sort.Slice(s, func(i, j int) bool { return p.less(s[i], s[j]) })
		return s
	}
	p.Add(5, 1.0)
	p.Add(3, 1.0)
	p.Add(7, 0.5)
	// Unexplored ties: smaller id first.
	if s := byPriority(); s[0].ID != 7 || s[1].ID != 3 || s[2].ID != 5 {
		t.Fatalf("order = %v", s)
	}
	// Mark 3 explored: unexplored 5 outranks it at the same distance.
	p.MarkExplored(3)
	if s := byPriority(); s[1].ID != 5 || s[2].ID != 3 {
		t.Fatalf("explored tie-break wrong: %v", s)
	}
	// Two explored at the same distance: more recent first.
	p.MarkExplored(5)
	if s := byPriority(); s[1].ID != 5 || s[2].ID != 3 {
		t.Fatalf("recency tie-break wrong: %v", s)
	}
	// Resize drops the lowest priority and removes membership.
	p.Resize(2)
	if len(p.items) != 2 || p.inW[3] {
		t.Fatalf("resize wrong: %v inW=%v", p.items, p.inW)
	}
	// Re-adding a dropped node keeps its explored state.
	p.Add(3, 1.0)
	if !p.Explored(3) {
		t.Fatalf("explored state lost on re-add")
	}
	// Best considers explored nodes too.
	if c, ok := p.Best(); !ok || c.ID != 7 {
		t.Fatalf("Best = %v, %v", c, ok)
	}
}

func TestPoolNextUnexplored(t *testing.T) {
	p := NewPool(1, nil)
	if _, ok := p.NextUnexplored(); ok {
		t.Fatal("empty pool returned a candidate")
	}
	if _, ok := p.Best(); ok {
		t.Fatal("empty pool returned a best")
	}
	p.Add(2, 3.0)
	p.Add(9, 1.0)
	c, ok := p.NextUnexplored()
	if !ok || c.ID != 9 {
		t.Fatalf("NextUnexplored = %v, %v", c, ok)
	}
	if _, ok := p.NextUnexploredWithin(0.5); ok {
		t.Fatal("gamma filter failed")
	}
	if c, ok := p.NextUnexploredWithin(1.0); !ok || c.ID != 9 {
		t.Fatalf("within gamma = %v, %v", c, ok)
	}
	p.MarkExplored(9)
	p.MarkExplored(2)
	if !p.AllExplored() {
		t.Fatal("AllExplored false after exploring everything")
	}
}

func TestPoolCutoff(t *testing.T) {
	p := NewPool(1, nil)
	p.Add(4, 2.0)
	p.Add(6, 5.0)
	if c := p.Cutoff(3); !math.IsInf(c, 1) {
		t.Fatalf("Cutoff of a pool short of b = %v; want +Inf", c)
	}
	p.Add(1, 3.0)
	if c := p.Cutoff(3); c != 5.0 {
		t.Fatalf("Cutoff of a full pool = %v; want its worst distance 5", c)
	}
	// Anything farther than the cutoff is gone after Resize(b).
	p.Add(8, 6.0)
	p.Resize(3)
	if p.inW[8] {
		t.Fatal("candidate past the cutoff survived Resize")
	}
}

func TestEntryPointDescendsToNearbyNode(t *testing.T) {
	db := clusteredDB(6, 10, 10)
	h := buildTestIndex(t, db)
	metric := ged.MetricFunc(ged.Hungarian)
	gen := graph.NewGenerator(11)
	labels := []string{"C", "N", "O", "S"}

	// The HNSW entry point should on average be closer than a random node.
	rng := rand.New(rand.NewSource(3))
	var entrySum, randSum float64
	for i := 0; i < 10; i++ {
		q := gen.Mutate(db[rng.Intn(len(db))], 2, labels)
		c := NewDistCache(metric, db, q)
		ep := h.EntryPoint(context.Background(), c)
		entrySum += c.Dist(ep)
		randSum += c.Dist(rng.Intn(len(db)))
	}
	if entrySum > randSum {
		t.Fatalf("HNSW entry (avg %v) no better than random (avg %v)", entrySum/10, randSum/10)
	}
}

func TestSearchLayerReturnsAscending(t *testing.T) {
	db := clusteredDB(7, 4, 6)
	h := buildTestIndex(t, db)
	q := db[0]
	c := NewDistCache(ged.MetricFunc(ged.VJ), db, q)
	res := searchLayer(c, h.PG.Neighbors, 5, 8, nil)
	if len(res) == 0 {
		t.Fatal("empty result")
	}
	for i := 1; i < len(res); i++ {
		if res[i-1].Dist > res[i].Dist {
			t.Fatalf("not ascending: %v", res)
		}
	}
}
