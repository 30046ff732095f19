package pg

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
)

// TestMemoCachesByPair: a pair of database graphs is computed once in
// either argument order, and a free-standing graph (ID -1) is never
// cached.
func TestMemoCachesByPair(t *testing.T) {
	gen := graph.NewGenerator(17)
	labels := []string{"A", "B"}
	db := graph.NewDatabase([]*graph.Graph{
		gen.MoleculeLike(5, 0, labels, 0.2),
		gen.MoleculeLike(6, 0, labels, 0.2),
	})
	calls := 0
	c := newMemo(ged.MetricFunc(func(g, h *graph.Graph) float64 {
		calls++
		return ged.VJ(g, h)
	}))
	d1 := c.Distance(db[0], db[1])
	if calls != 1 {
		t.Fatalf("calls = %d; want 1", calls)
	}
	d2 := c.Distance(db[1], db[0]) // symmetric key: cache hit
	if calls != 1 {
		t.Fatalf("calls after cache hit = %d; want 1", calls)
	}
	if d1 != d2 {
		t.Fatalf("cached distance differs: %v vs %v", d1, d2)
	}
	q := gen.MoleculeLike(5, 0, labels, 0.2)
	c.Distance(q, db[0])
	c.Distance(q, db[0])
	if calls != 3 {
		t.Fatalf("calls = %d; want 3 (query not cacheable)", calls)
	}
}

// TestMemoTable: the memo returns exactly what was stored for every pair
// through several doublings of its tables — pair (0, 0) and both argument
// orders included — and computes each pair once, from several goroutines
// at a time.
func TestMemoTable(t *testing.T) {
	const n = 120
	gs := make([]*graph.Graph, n)
	for i := range gs {
		gs[i] = graph.New(i)
		gs[i].AddNode("A")
	}
	// A metric that is cheap and tells unordered pairs apart.
	pair := func(g, h *graph.Graph) float64 {
		lo, hi := min(g.ID, h.ID), max(g.ID, h.ID)
		return float64(lo*n+hi) + 0.25
	}
	var calls atomic.Int64
	c := newMemo(ged.MetricFunc(func(g, h *graph.Graph) float64 {
		calls.Add(1)
		return pair(g, h)
	}))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						g, h := gs[i], gs[j]
						if (i+j+w)%2 == 1 {
							g, h = h, g
						}
						if got, want := c.Distance(g, h), pair(g, h); got != want {
							t.Errorf("Distance(%d, %d) = %v; want %v", g.ID, h.ID, got, want)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	held := 0
	for i := range c.shards {
		held += c.shards[i].cache.n
	}
	if want := n * (n + 1) / 2; held != want {
		t.Fatalf("memo holds %d pairs; want %d", held, want)
	}
	// Racing goroutines may each compute a pair before either stores it,
	// but a settled memo never computes again.
	before := calls.Load()
	c.Distance(gs[0], gs[0])
	c.Distance(gs[n-1], gs[3])
	if calls.Load() != before {
		t.Fatalf("a memoised pair was recomputed")
	}
}
