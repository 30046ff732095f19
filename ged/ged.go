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

import "github.com/lansearch/lan/graph"

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
