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

// labelLowerBound is an admissible GED lower bound from the node-label
// multisets and edge counts: relabeling can fix at most the overlapping
// labels; size differences force insertions/deletions; the edge-count gap
// forces at least that many edge edits.
func labelLowerBound(g, h *graph.Graph) float64 {
	lb := multisetEditLB(g.LabelHistogram(), h.LabelHistogram(), g.N(), h.N())
	eg, eh := g.M(), h.M()
	if eg > eh {
		lb += float64(eg - eh)
	} else {
		lb += float64(eh - eg)
	}
	return lb
}

// multisetEditLB lower-bounds node edit cost between two label multisets of
// sizes n1 and n2: the larger side must delete/insert |n1-n2| nodes and the
// remaining non-overlapping labels must be relabeled.
func multisetEditLB(h1, h2 map[string]int, n1, n2 int) float64 {
	common := 0
	for l, c1 := range h1 {
		if c2 := h2[l]; c2 < c1 {
			common += c2
		} else {
			common += c1
		}
	}
	small := n1
	if n2 < n1 {
		small = n2
	}
	big := n1 + n2 - small
	// |n1-n2| insertions/deletions plus relabels for the unmatched part of
	// the smaller side.
	return float64(big-small) + float64(small-minInt(common, small))
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
