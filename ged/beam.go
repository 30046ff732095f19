package ged

import (
	"math/bits"

	"github.com/lansearch/lan/internal/order"
)

// searchState is one partial mapping with its mapping materialized: a
// member of the beam frontier, or the state A* is expanding. phi and used
// are slices into the arena's state buffers; the struct itself is stored
// by value, so keeping a frontier allocates nothing.
type searchState struct {
	cost float64
	f    float64
	// usedN counts used h nodes; bothUsed counts h edges with both
	// endpoints used; remEdges counts h edges with both endpoints unused.
	// The three are maintained incrementally so neither the heuristic nor
	// the terminal completion cost ever scans h's edge set.
	usedN    int32
	bothUsed int32
	remEdges int32
	phi      []int32
	used     []uint64
}

// searchCand is a child state as assignment metadata only: which parent,
// which h node. Beam search materializes phi/used for the top-w survivors
// after selection, A* for the states it actually pops, so the (much
// larger) rejected majority never pays the copy.
type searchCand struct {
	cost     float64
	f        float64
	parent   int32 // frontier index (beam) or candidate index (A*)
	w        int32 // h node, or unmapped
	depth    int32 // number of g nodes processed
	usedN    int32
	bothUsed int32
	remEdges int32
}

// beam computes an upper bound of GED via beam search over the same state
// space as A*: at each depth only the w most promising partial mappings
// (by cost + admissible heuristic) are kept. This is the "Beam" algorithm
// of Neuhaus, Riesen and Bunke used in the paper's ground-truth protocol.
// Width w <= 0 defaults to 8. prepSearch must have run.
//
// States live in flat per-depth arenas, label histograms are dense
// []int32 counters over interned label ids, the per-state edge statistics
// are maintained incrementally, and the per-depth frontier truncation is a
// partial top-w heap selection instead of a full sort.
//
// Ties on f are broken by state creation order — the order a stable sort
// of the enumerated children keeps — so the kept frontier is a
// deterministic function of the input pair, not of sort internals.
//
//lan:hotpath
func (c *pairCtx) beam(w int) float64 {
	if w <= 0 {
		w = 8
	}
	if c.gN == 0 {
		// Terminal immediately: insert all of h.
		return float64(c.hN) + float64(c.hM)
	}
	s0 := c.rootState()
	s0.f = c.heuristicOf(0, &searchCand{remEdges: c.hM})
	c.frontier = append(c.frontier[:0], s0)

	for depth := 0; depth < c.gN; depth++ {
		u := int(c.order[depth])
		c.cands = c.cands[:0]
		for pi := range c.frontier {
			s := &c.frontier[pi]
			c.fillUsedHist(s)
			c.expand(depth, int32(pi), s)
		}
		c.keepBest(w, u)
		c.frontier, c.next = c.next, c.frontier
		c.phiA, c.phiB = c.phiB, c.phiA
		c.usedA, c.usedB = c.usedB, c.usedA
	}

	best := c.frontier[0].cost
	for i := 1; i < len(c.frontier); i++ {
		if c.frontier[i].cost < best {
			best = c.frontier[i].cost
		}
	}
	return best
}

// expand appends to c.cands every child of s, a state at the given depth:
// g node order[depth] mapped to each unused h node in ascending id order,
// then deleted. c.usedHist must hold s's used-label histogram.
func (c *pairCtx) expand(depth int, pi int32, s *searchState) {
	u := int(c.order[depth])
	for x := 0; x < c.hN; x++ {
		if !isUsed(s.used, x) {
			c.addCand(depth, pi, s, u, int32(x))
		}
	}
	c.addCand(depth, pi, s, u, unmapped)
}

// fillUsedHist recomputes the used-h-label histogram of parent s into the
// scratch buffer.
func (c *pairCtx) fillUsedHist(s *searchState) {
	for l := 0; l < c.nLabels; l++ {
		c.usedHist[l] = 0
	}
	for u := 0; u < c.gN; u++ {
		if x := s.phi[u]; x >= 0 {
			c.usedHist[c.hLab[x]]++
		}
	}
}

// addCand appends the child of s that maps g node u to h node w (or
// deletes u when w == unmapped), computing its cost and f without
// materializing the child's mapping.
func (c *pairCtx) addCand(depth int, pi int32, s *searchState, u int, w int32) {
	cost := 0.0
	var usedNbr, unusedNbr int32
	if w == unmapped {
		cost = 1 // node deletion
		for _, j := range c.g.Neighbors(u) {
			if s.phi[j] != notProcessed {
				cost++ // incident edge to a processed node is deleted
			}
		}
	} else {
		if c.gLab[u] != c.hLab[w] {
			cost++ // relabel
		}
		matched := int32(0)
		for _, j := range c.g.Neighbors(u) {
			switch pj := s.phi[j]; {
			case pj == notProcessed:
				// decided later
			case pj == unmapped:
				cost++ // g edge to a deleted node: deletion
			case c.hasEdgeH(w, pj):
				matched++
			default:
				cost++ // g edge with no h counterpart: deletion
			}
		}
		for i, row := range c.hAdj[int(w)*c.hWords : (int(w)+1)*c.hWords] {
			usedNbr += int32(bits.OnesCount64(row & s.used[i]))
			unusedNbr += int32(bits.OnesCount64(row &^ s.used[i]))
		}
		// h edges from w to already-used nodes that are not matched by a g
		// edge must be inserted.
		cost += float64(usedNbr - matched)
	}

	nc := searchCand{
		cost: s.cost + cost, parent: pi, w: w, depth: int32(depth + 1),
		usedN: s.usedN, bothUsed: s.bothUsed, remEdges: s.remEdges,
	}
	if w >= 0 {
		nc.usedN++
		nc.bothUsed += usedNbr
		nc.remEdges -= unusedNbr
	}
	if depth+1 == c.gN {
		// Terminal: fold in the forced insertions so that f is exact.
		nc.cost += float64(int32(c.hN)-nc.usedN) + float64(c.hM-nc.bothUsed)
		nc.f = nc.cost
	} else if w >= 0 {
		// The child's used-label histogram is the parent's plus w's label.
		c.usedHist[c.hLab[w]]++
		nc.f = nc.cost + c.heuristicOf(depth+1, &nc)
		c.usedHist[c.hLab[w]]--
	} else {
		nc.f = nc.cost + c.heuristicOf(depth+1, &nc)
	}
	c.cands = append(c.cands, nc)
}

// heuristicOf is the admissible lower bound on the remaining edit cost of
// a candidate at the given depth: the label-multiset bound between
// unprocessed g nodes and unused h nodes plus the gap between the
// remaining-remaining edge counts on both sides. c.usedHist must hold the
// candidate's used-label histogram.
func (c *pairCtx) heuristicOf(depth int, nc *searchCand) float64 {
	common := int32(0)
	row := c.suffixHist[depth*c.nLabels : (depth+1)*c.nLabels]
	for l, sfx := range row {
		if rem := c.hHist[l] - c.usedHist[l]; rem < sfx {
			common += rem
		} else {
			common += sfx
		}
	}
	remG := int32(c.gN - depth)
	remH := int32(c.hN) - nc.usedN
	small, big := remG, remH
	if remH < remG {
		small, big = remH, remG
	}
	if common > small {
		common = small
	}
	lb := float64(big-small) + float64(small-common)

	eg, eh := c.suffixEdges[depth], nc.remEdges
	if eg > eh {
		lb += float64(eg - eh)
	} else {
		lb += float64(eh - eg)
	}
	return lb
}

// keepBest selects the top-w candidates under (f ascending, creation index
// ascending) — the deterministic refinement of the old full-sort-and-
// truncate — and materializes them, in that order, into the B arenas as
// the next frontier.
func (c *pairCtx) keepBest(w, u int) {
	// Max-heap of at most w candidate indices, worst on top. Candidates
	// arrive in creation order, so once the heap is full a newcomer ranks
	// after every kept candidate it ties with on f: it enters only when the
	// root is worse, and then takes the root's place. O(C log w) at most,
	// one comparison for the rejected majority.
	c.heap = c.heap[:0]
	for i := range c.cands {
		switch {
		case len(c.heap) < w:
			c.heap = append(c.heap, int32(i))
			c.siftUp(len(c.heap) - 1)
		case c.worse(c.heap[0], int32(i)):
			c.heap[0] = int32(i)
			c.siftDown(0)
		}
	}
	// Drain the heap back-to-front: popping the worst repeatedly yields
	// ascending (f, index) order.
	n := len(c.heap)
	sorted := c.heap
	for i := n - 1; i > 0; i-- {
		sorted[0], sorted[i] = sorted[i], sorted[0]
		c.heap = sorted[:i]
		c.siftDown(0)
	}
	c.heap = sorted

	c.phiB = grow(c.phiB, n*c.gN)
	c.usedB = grow(c.usedB, n*c.hWords)
	c.next = c.next[:0]
	for si, ci := range sorted {
		nc := &c.cands[ci]
		parent := &c.frontier[nc.parent]
		phi := c.phiB[si*c.gN : (si+1)*c.gN]
		copy(phi, parent.phi)
		used := c.usedB[si*c.hWords : (si+1)*c.hWords]
		copy(used, parent.used)
		phi[u] = nc.w
		if nc.w >= 0 {
			used[nc.w/64] |= 1 << (nc.w % 64)
		}
		c.next = append(c.next, searchState{
			cost: nc.cost, f: nc.f,
			usedN: nc.usedN, bothUsed: nc.bothUsed, remEdges: nc.remEdges,
			phi: phi, used: used,
		})
	}
}

// worse reports whether candidate a ranks strictly after candidate b under
// (f ascending, creation index ascending).
func (c *pairCtx) worse(a, b int32) bool {
	if cmp := order.Cmp(c.cands[a].f, c.cands[b].f); cmp != 0 {
		return cmp > 0
	}
	return a > b
}

func (c *pairCtx) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !c.worse(c.heap[i], c.heap[p]) {
			return
		}
		c.heap[i], c.heap[p] = c.heap[p], c.heap[i]
		i = p
	}
}

func (c *pairCtx) siftDown(i int) {
	n := len(c.heap)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && c.worse(c.heap[l], c.heap[worst]) {
			worst = l
		}
		if r < n && c.worse(c.heap[r], c.heap[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		c.heap[i], c.heap[worst] = c.heap[worst], c.heap[i]
		i = worst
	}
}
