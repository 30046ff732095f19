package ged

import "github.com/lansearch/lan/graph"

// unmapped marks a node of g that is deleted (mapped to no node of h).
const unmapped = -1

// mappingCost returns the exact edit cost induced by a full node mapping
// phi: phi[u] is the node of h that u in g maps to, or unmapped for a node
// deletion. Nodes of h that are not images are inserted. Edge edits are
// derived from the mapping: an edge of g survives iff both endpoints map to
// nodes of h joined by an edge; every other g edge is deleted and every h
// edge not covered this way is inserted. The result is an upper bound of
// the exact GED for any mapping and equals the GED for an optimal mapping.
func mappingCost(g, h *graph.Graph, phi []int) float64 {
	c := acquireAsGiven(g, h) // phi is g's mapping
	c.phiA = grow(c.phiA, c.gN)
	for u, w := range phi {
		c.phiA[u] = int32(w)
	}
	d := c.mappingCost(c.phiA)
	release(c)
	return d
}

// mappingCost is the edit cost of mapping the loaded g into the loaded h
// by phi, counted rather than accumulated: every term is a unit cost.
func (c *pairCtx) mappingCost(phi []int32) float64 {
	mapped, relabels, matched := 0, 0, 0
	for u, w := range phi {
		if w == unmapped {
			continue
		}
		mapped++
		if c.gLab[u] != c.hLab[w] {
			relabels++
		}
		for _, v := range c.g.Neighbors(u) {
			if x := phi[v]; v > u && x != unmapped && c.hasEdgeH(w, x) {
				matched++ // the g edge {u, v} survives
			}
		}
	}
	// Node deletions, relabels and node insertions; then the g edges that
	// do not survive are deleted and the h edges they do not cover inserted.
	nodes := (c.gN - mapped) + relabels + (c.hN - mapped)
	edges := (c.g.M() - matched) + (int(c.hM) - matched)
	return float64(nodes + edges)
}

// labelBound is an admissible GED lower bound of the loaded pair from its
// node-label multisets and edge counts: relabeling can fix at most the
// overlapping labels, size differences force insertions or deletions, and
// the edge-count gap forces at least that many edge edits. The multisets
// are counted over the interned labels.
func (c *pairCtx) labelBound() float64 {
	hist := grow(c.lbHist, c.nLabels)
	c.lbHist = hist
	clear(hist)
	for _, l := range c.gLab[:c.gN] {
		hist[l]++
	}
	common := 0
	for _, l := range c.hLab[:c.hN] {
		if hist[l] > 0 {
			hist[l]--
			common++
		}
	}
	small, big := min(c.gN, c.hN), max(c.gN, c.hN)
	// |n1-n2| insertions/deletions, relabels for the unmatched part of the
	// smaller side (common <= small), and the edge-count gap: small
	// integers, summed exactly.
	lb := float64(big-small) + float64(small-common)
	eg, eh := c.g.M(), int(c.hM)
	if eg > eh {
		lb += float64(eg - eh)
	} else {
		lb += float64(eh - eg)
	}
	return lb
}
