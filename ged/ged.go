// Package ged computes graph edit distance (GED) between labeled undirected
// graphs, exactly and approximately. It provides:
//
//   - Exact GED via A* search with admissible label/edge lower bounds and a
//     configurable expansion budget (Sec. III-A of the LAN paper).
//   - Beam-search GED (the "Beam" heuristic of Neuhaus, Riesen, Bunke).
//   - Bipartite upper bounds via assignment: the Riesen–Bunke cost model
//     solved with the Hungarian algorithm ("Hung") and a plain label-cost
//     model solved with Jonker–Volgenant ("VJ").
//   - An Ensemble following the paper's ground-truth protocol (exact within
//     a budget, else best-of-three approximations).
//   - A counting wrapper used by the routing layer to account for the
//     number of distance computations (NDC).
//
// All functions in this package use unit edit costs: node insertion,
// node deletion, edge insertion, edge deletion and node relabeling each
// cost 1, matching the paper's GED definition.
//
// Every kernel — A*, beam search, both assignment solvers and the mapping
// cost — runs on one pooled per-pair arena (pairCtx, arena.go): labels
// interned to dense ids, h's adjacency as a bitset, the assignment
// instances in compact form and index heaps, all reused across calls, so a
// distance call allocates nothing in steady state. An Ensemble distance
// loads the pair once for all of its members. The kernels they replaced
// live on in reference_test.go, where the identity tests and the fuzzers
// hold the arena kernels to them bit for bit.
package ged

import (
	"math"
	"sync"
	"sync/atomic"

	"github.com/lansearch/lan/graph"
)

// Metric computes a distance between two labeled graphs. Implementations
// must be safe for concurrent use.
type Metric interface {
	Distance(g, h *graph.Graph) float64
}

// MetricFunc adapts a function to the Metric interface.
type MetricFunc func(g, h *graph.Graph) float64

// Distance implements Metric.
func (f MetricFunc) Distance(g, h *graph.Graph) float64 { return f(g, h) }

// Exact returns the exact GED of g and h, or ok=false if the A* search
// exceeded maxExpansions node expansions (pass 0 for no budget). When
// ok=false the returned value is a valid upper bound obtained from the best
// complete mapping seen (falling back to a bipartite bound).
func Exact(g, h *graph.Graph, maxExpansions int) (d float64, ok bool) {
	c := acquire(g, h)
	d, ok = c.exact(maxExpansions)
	release(c)
	return d, ok
}

// exact runs A* on a freshly loaded arena and, when the budget runs out,
// pays for the bound the public contract promises: the Hungarian bound
// taken smaller-graph-first, whatever the caller's argument order.
func (c *pairCtx) exact(maxExpansions int) (d float64, ok bool) {
	c.prepSearch()
	if d, _, ok = c.astar(maxExpansions); !ok {
		swapped := c.swapped
		c.swapped = false
		d = c.hungarian()
		c.swapped = swapped
	}
	return d, ok
}

// LowerBound returns an admissible lower bound of the exact GED from the
// node-label multisets and edge counts — cheap enough for filtering
// pipelines (LowerBound(g,h) > tau certifies d(g,h) > tau). It counts the
// multisets on a pooled arena's interned labels and allocates nothing in
// steady state.
func LowerBound(g, h *graph.Graph) float64 {
	c := acquire(g, h)
	lb := c.labelBound()
	release(c)
	return lb
}

// Beam returns the beam-search GED of g and h with beam width w (an upper
// bound of the exact GED).
func Beam(g, h *graph.Graph, w int) float64 {
	c := acquire(g, h)
	c.prepSearch()
	d := c.beam(w)
	release(c)
	return d
}

// Hungarian returns the Riesen–Bunke bipartite upper bound: node assignment
// costs include each node's incident-edge neighborhood, solved by the
// Hungarian algorithm; the returned value is the edit cost induced by the
// resulting node mapping.
func Hungarian(g, h *graph.Graph) float64 {
	c := acquire(g, h)
	d := c.hungarian()
	release(c)
	return d
}

// VJ returns a bipartite upper bound using plain label substitution costs
// solved with the Jonker–Volgenant algorithm (the "VJ" baseline of the
// paper's ground-truth protocol).
func VJ(g, h *graph.Graph) float64 {
	c := acquire(g, h)
	d := c.vj()
	release(c)
	return d
}

// Ensemble is the ground-truth distance protocol of the paper (Sec. VII):
// exact GED when the A* search finishes within ExactBudget expansions,
// otherwise the minimum of the VJ, Hungarian and Beam upper bounds.
type Ensemble struct {
	// ExactBudget is the A* expansion budget before falling back to the
	// approximations. Zero means "never attempt exact".
	ExactBudget int
	// BeamWidth is the width used by the Beam fallback (default 16).
	BeamWidth int
}

// Distance implements Metric.
func (e Ensemble) Distance(g, h *graph.Graph) float64 {
	c := acquire(g, h)
	d := e.distanceOn(c)
	release(c)
	return d
}

// distanceOn runs the protocol on a loaded arena: every member works on
// the one pair context, and an exhausted A* hands over without computing
// the bound Exact would return — the approximations below are that bound.
func (e Ensemble) distanceOn(c *pairCtx) float64 {
	c.prepSearch()
	if e.ExactBudget > 0 {
		if d, _, ok := c.astar(e.ExactBudget); ok {
			astarFinished.Add(1)
			return d
		}
		astarExhausted.Add(1)
	}
	w := e.BeamWidth
	if w <= 0 {
		w = 16
	}
	d, best := c.vj(), 0
	if d2 := c.hungarian(); d2 < d {
		d, best = d2, 1
	}
	if d3 := c.beam(w); d3 < d {
		d, best = d3, 2
	}
	ensembleBest[best].Add(1)
	return d
}

// counterShards is the number of lock stripes in Counter's memo. The
// parallel index build hits the memo from every worker; with a single
// mutex the workers serialize on cache lookups even though the GED
// computations themselves run concurrently.
const counterShards = 64

type counterShard struct {
	mu    sync.Mutex
	cache pairTable
}

// pairTable is the memo of one stripe: an open-addressing hash table from
// a packed id pair to its distance, 16 bytes a slot, doubled at 3/4 full.
// A map[[2]int]float64 held the same entries at ~85 resident bytes each
// once its tables (each below the allocator's large-object size) had grown
// and split a few times; under mutation the memo only grows, by ~150 pairs
// per write, and was the largest thing a writable index added to its
// process (5 MB after ~550 writes on a 640-graph index). This table costs
// 21-43 bytes a pair and is one allocation per stripe.
type pairTable struct {
	slots []pairSlot
	n     int
}

// pairSlot holds key+1, so that the zero slot is empty.
type pairSlot struct {
	key1 uint64
	d    float64
}

// find returns key1's slot, or the empty slot where it would go (linear
// probing; the table is never full).
func (t *pairTable) find(key1 uint64) *pairSlot {
	mask := uint64(len(t.slots) - 1)
	for i := (key1 * 0x9e3779b97f4a7c15) >> 32 & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.key1 == key1 || s.key1 == 0 {
			return s
		}
	}
}

func (t *pairTable) get(key1 uint64) (float64, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	s := t.find(key1)
	return s.d, s.key1 == key1
}

func (t *pairTable) put(key1 uint64, d float64) {
	if 4*(t.n+1) > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]pairSlot, max(16, 2*len(old)))
		for _, s := range old {
			if s.key1 != 0 {
				*t.find(s.key1) = s
			}
		}
	}
	s := t.find(key1)
	if s.key1 == 0 {
		t.n++
	}
	*s = pairSlot{key1: key1, d: d}
}

// Counter wraps a Metric and counts calls; the routing layer uses it to
// report NDC. It optionally memoizes by (g.ID, h.ID) pairs when both ids
// are non-negative (and fit 32 bits); cache hits do not increment the
// counter because a cached distance costs no GED computation. The memo is
// sharded across lock stripes, so Distance is safe for concurrent use.
type Counter struct {
	Metric Metric

	calls atomic.Int64

	shards [counterShards]counterShard
}

// NewCounter returns a counting, memoizing wrapper around m.
func NewCounter(m Metric) *Counter { return &Counter{Metric: m} }

// shard picks the lock stripe for a sorted id pair, mixing both ids so
// consecutive pairs spread across stripes.
func (c *Counter) shard(lo, hi int) *counterShard {
	h := uint64(lo)*0x9e3779b97f4a7c15 ^ uint64(hi)*0xbf58476d1ce4e5b9
	return &c.shards[(h>>32)&(counterShards-1)]
}

// Distance implements Metric, counting and caching the computation.
func (c *Counter) Distance(g, h *graph.Graph) float64 {
	var sh *counterShard
	var key1 uint64
	lo, hi := g.ID, h.ID
	if lo > hi {
		lo, hi = hi, lo
	}
	cacheable := lo >= 0 && hi < math.MaxUint32
	if cacheable {
		key1 = (uint64(lo)<<32 | uint64(hi)) + 1
		sh = c.shard(lo, hi)
		sh.mu.Lock()
		d, ok := sh.cache.get(key1)
		sh.mu.Unlock()
		if ok {
			return d
		}
	}
	d := c.Metric.Distance(g, h)
	c.calls.Add(1)
	if cacheable {
		sh.mu.Lock()
		sh.cache.put(key1, d)
		sh.mu.Unlock()
	}
	return d
}

// Calls returns the number of distance computations performed (cache hits
// excluded).
func (c *Counter) Calls() int64 { return c.calls.Load() }

// Reset zeroes the call counter and clears the memo cache.
func (c *Counter) Reset() {
	c.calls.Store(0)
	for i := range c.shards {
		c.shards[i].mu.Lock()
		c.shards[i].cache = pairTable{}
		c.shards[i].mu.Unlock()
	}
}
