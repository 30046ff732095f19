package ged

import "math/bits"

// searchState is one partial mapping with its mapping materialized: a
// member of the beam frontier, or the state A* is expanding. phi and used
// are slices into the arena's state buffers; the struct itself is stored
// by value, so keeping a frontier allocates nothing.
type searchState struct {
	// cost and f, the cost plus the admissible heuristic, are sums of unit
	// edit costs: integers, as every search quantity is.
	cost int32
	f    int32
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
// which h node. Beam search holds one per selection slot and materializes
// phi/used for the survivors after selection, A* holds every child and
// rebuilds the states it actually pops, so no rejected child pays the copy.
type searchCand struct {
	cost     int32
	f        int32
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
// States live in flat per-depth arenas, and each depth is one pass over
// the frontier (selectChildren): each parent's children are priced
// together (priceChildren) and those that can still enter are offered to
// a bounded top-w heap, so only contenders are ever written.
//
// Ties on f are broken by state creation order — the order a stable sort
// of the enumerated children keeps — so the kept frontier is a
// deterministic function of the input pair, not of heap internals.
func (c *pairCtx) beam(w int) float64 {
	if w <= 0 {
		w = 8
	}
	if c.gN == 0 {
		// Terminal immediately: insert all of h.
		return float64(c.hN) + float64(c.hM)
	}
	s0 := c.rootState()
	s0.f = c.lowerBound(0, c.commonAt(0), 0, c.hM)
	c.frontier = append(c.frontier[:0], s0)

	for depth := 0; depth < c.gN; depth++ {
		c.selectChildren(depth, w)
		c.advance(int(c.order[depth]))
		c.frontier, c.next = c.next, c.frontier
		c.phiA, c.phiB = c.phiB, c.phiA
		c.usedA, c.usedB = c.usedB, c.usedA
	}

	best := c.frontier[0].cost
	for i := 1; i < len(c.frontier); i++ {
		best = min(best, c.frontier[i].cost)
	}
	return float64(best)
}

// selectChildren offers every child of every frontier state at the given
// depth, in creation order, to a max-heap of at most w slots under (f
// ascending, creation index ascending), worst on top. Once the heap is
// full a child enters only if its f is below the root's — on a tie it
// ranks after every kept child, having been created later — and then
// takes the root's slot. That bound only falls as the depth goes on, so
// each parent's pass, given the bound in force when the parent starts,
// marks every child that could still enter; the loop visits the marked
// children alone and tests each against the bound as it stands then. A
// child's creation index is its position among all of the depth's
// children, visited or not: parent index, then h node, the deletion last.
// A rejected child writes nothing. The slots are sized by the children
// this depth has, never by w.
func (c *pairCtx) selectChildren(depth, w int) {
	n := 0
	for i := range c.frontier {
		n += c.hN - int(c.frontier[i].usedN) + 1
	}
	slots := min(w, n)
	c.cands = grow(c.cands, slots)
	c.seq = grow(c.seq, slots)
	c.heap = grow(c.heap, slots)[:0]
	bound := noBound // the root's f once every slot is taken
	for pi := range c.frontier {
		s := &c.frontier[pi]
		c.fillUsedHist(s)
		c.priceChildren(depth, s, bound)
		for wi, word := range c.childMask {
			for ; word != 0; word &= word - 1 {
				x := 64*wi + bits.TrailingZeros64(word)
				c.visited++
				if c.childF[x] >= bound {
					continue
				}
				seq := pi*(c.hN+1) + x
				if k := len(c.heap); k < slots {
					c.cands[k], c.seq[k] = c.childCand(depth, int32(pi), s, x), seq
					c.heap = append(c.heap, int32(k))
					c.siftUp(k)
					if k+1 < slots {
						continue
					}
				} else {
					r := c.heap[0]
					c.cands[r], c.seq[r] = c.childCand(depth, int32(pi), s, x), seq
					c.siftDown(0)
				}
				bound = c.cands[c.heap[0]].f
			}
		}
	}
}

// fillUsedHist recomputes the used-h-label histogram of parent s into the
// scratch buffer.
func (c *pairCtx) fillUsedHist(s *searchState) {
	clear(c.usedHist)
	for wi, used := range s.used {
		for ; used != 0; used &= used - 1 {
			c.usedHist[c.hLab[64*wi+bits.TrailingZeros64(used)]]++
		}
	}
}

// commonAt is the label-overlap sum of the heuristic at the given depth:
// label by label, how many of the unprocessed g nodes the unused h nodes
// can match, under the used-label histogram in c.usedHist.
func (c *pairCtx) commonAt(depth int) int32 {
	common := int32(0)
	row := c.suffixHist[depth*c.nLabels : (depth+1)*c.nLabels]
	for l, sfx := range row {
		if rem := c.hHist[l] - c.usedHist[l]; rem < sfx {
			common += rem
		} else {
			common += sfx
		}
	}
	return common
}

// lowerBound is the admissible lower bound on the remaining edit cost of a
// state at the given depth with usedN used h nodes and remEdges h edges
// between unused ones: the label-multiset bound between unprocessed g
// nodes and unused h nodes, from its label-overlap sum common, plus the
// gap between the remaining-remaining edge counts on both sides.
func (c *pairCtx) lowerBound(depth int, common, usedN, remEdges int32) int32 {
	remG := int32(c.gN - depth)
	remH := int32(c.hN) - usedN
	small, big := min(remG, remH), max(remG, remH)
	return (big - small) + (small - min(common, small)) + abs32(c.suffixEdges[depth]-remEdges)
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// advance drains the selection heap into ascending (f, creation index)
// order and materializes those children, in that order, into the B arenas
// as the next frontier; u is the g node this depth decided.
func (c *pairCtx) advance(u int) {
	// Popping the worst repeatedly, back to front, leaves the heap array
	// sorted ascending.
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
	for si, slot := range sorted {
		nc := &c.cands[slot]
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

// worse reports whether the child in slot a ranks strictly after the one
// in slot b under (f ascending, creation index ascending).
func (c *pairCtx) worse(a, b int32) bool {
	if fa, fb := c.cands[a].f, c.cands[b].f; fa != fb {
		return fa > fb
	}
	return c.seq[a] > c.seq[b]
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
