package ged

import "math"

// notProcessed marks a g node whose mapping decision has not been made.
const notProcessed = -2

// astar runs exact GED A* over the loaded pair: d is exact when ok, and
// the optimal mapping of g into h is then left in the A0 state slot.
// maxExpansions <= 0 means unbounded; when the budget runs out the search
// returns ok=false and no bound — the caller decides what a bound is worth.
// prepSearch must have run.
//
// Children are candidate records with a parent pointer; only the states
// actually popped (at most the budget) have their mapping rebuilt, and
// cost, heuristic and edge counters come from the per-parent tables and
// the child-cost function beam search prices its children with.
// The open list is an index heap performing container/heap's exact
// comparisons (astarPush, astarPop), so the pop order among equal-f states
// — and with it which pairs finish inside a budget — is that of the
// container/heap implementation this kernel replaced.
func (c *pairCtx) astar(maxExpansions int) (d float64, expansions int, ok bool) {
	s := c.rootState()
	root := searchCand{parent: -1, remEdges: c.hM}
	if c.gN == 0 {
		root.cost = float64(c.hN) + float64(c.hM) // insert all of h
		root.f = root.cost
	} else {
		root.f = c.lowerBound(0, c.commonAt(0), 0, c.hM)
	}
	c.cands = append(c.cands[:0], root)
	c.heap = append(c.heap[:0], 0)
	deepest := 0 // deepest level with a generated state
	for len(c.heap) > 0 {
		ci := c.astarPop()
		depth := int(c.cands[ci].depth)
		if depth == c.gN {
			// Completion cost already folded in by child.
			c.rebuild(ci, &s)
			return s.cost, expansions, true
		}
		expansions++
		if depth+1 > deepest {
			deepest = depth + 1
		}
		// A goal is popped only after one expansion per depth still to be
		// generated, so when those no longer fit the budget it is spent
		// already: stop here with the count the loop would reach.
		if maxExpansions > 0 && expansions+(c.gN-deepest) > maxExpansions {
			return 0, maxExpansions + 1, false
		}
		c.rebuild(ci, &s)
		first := len(c.cands)
		c.expand(depth, ci, &s)
		for i := first; i < len(c.cands); i++ {
			c.astarPush(int32(i))
		}
	}
	return 0, expansions, false // unreachable for well-formed inputs
}

// expand appends to c.cands every child of s, the state of candidate pi at
// the given depth: g node order[depth] mapped to each unused h node in
// ascending id order, then deleted. c.usedHist must hold s's used-label
// histogram.
func (c *pairCtx) expand(depth int, pi int32, s *searchState) {
	c.prepParent(depth, s)
	for wi := 0; wi <= c.hN/64; wi++ {
		for free := c.freeBits(s, wi); free != 0; free &= free - 1 {
			n := len(c.cands)
			c.cands = append(c.cands, searchCand{})
			c.child(&c.cands[n], depth, pi, s, c.childAt(wi, free), math.Inf(1))
		}
	}
}

// rebuild materializes candidate ci into s by walking its parent chain,
// and leaves its used-label histogram in c.usedHist.
func (c *pairCtx) rebuild(ci int32, s *searchState) {
	for i := range s.phi {
		s.phi[i] = notProcessed
	}
	clear(s.used)
	clear(c.usedHist)
	nc := &c.cands[ci]
	s.cost = nc.cost
	s.usedN, s.bothUsed, s.remEdges = nc.usedN, nc.bothUsed, nc.remEdges
	for ; nc.parent >= 0; nc = &c.cands[nc.parent] {
		s.phi[c.order[nc.depth-1]] = nc.w
		if nc.w >= 0 {
			s.used[nc.w/64] |= 1 << (nc.w % 64)
			c.usedHist[c.hLab[nc.w]]++
		}
	}
}

// astarPush is container/heap.Push on the open list under Less = f <.
func (c *pairCtx) astarPush(ci int32) {
	c.heap = append(c.heap, ci)
	h := c.heap
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(c.cands[h[j]].f < c.cands[h[i]].f) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// astarPop is container/heap.Pop on the open list under Less = f <.
func (c *pairCtx) astarPop() int32 {
	h := c.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && c.cands[h[r]].f < c.cands[h[j]].f {
			j = r
		}
		if !(c.cands[h[j]].f < c.cands[h[i]].f) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	c.heap = h[:n]
	return h[n]
}
