package ged

import (
	"math"
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
// which h node. Beam search holds one per selection slot and materializes
// phi/used for the survivors after selection, A* holds every child and
// rebuilds the states it actually pops, so no rejected child pays the copy.
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
// States live in flat per-depth arenas, and each depth is one pass over
// the frontier's children (selectChildren): a child is priced from its
// parent's tables and offered to a bounded top-w heap as it is computed,
// so only contenders are ever written.
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
		if c.frontier[i].cost < best {
			best = c.frontier[i].cost
		}
	}
	return best
}

// selectChildren streams every child of every frontier state at the given
// depth, in creation order, through a max-heap of at most w slots under
// (f ascending, creation index ascending), worst on top. Once the heap is
// full a child enters only if its f is below the root's — on a tie it
// ranks after every kept child, having been created later — and then
// takes the root's slot. The heuristic is non-negative, so a child whose
// cost alone is not below the root's f is rejected before its heuristic
// is computed; a rejected child writes nothing. The slots are sized by the
// children this depth has, never by w.
func (c *pairCtx) selectChildren(depth, w int) {
	n := 0
	for i := range c.frontier {
		n += c.hN - int(c.frontier[i].usedN) + 1
	}
	slots := min(w, n)
	c.cands = grow(c.cands, slots)
	c.seq = grow(c.seq, slots)
	c.heap = grow(c.heap, slots)[:0]
	bound := math.Inf(1) // the root's f once every slot is taken
	seq := 0
	var nc searchCand
	for pi := range c.frontier {
		s := &c.frontier[pi]
		c.fillUsedHist(s)
		c.prepParent(depth, s)
		for wi := 0; wi <= c.hN/64; wi++ {
			for free := c.freeBits(s, wi); free != 0; free &= free - 1 {
				seq++
				if !c.child(&nc, depth, int32(pi), s, c.childAt(wi, free), bound) {
					continue
				}
				if k := len(c.heap); k < slots {
					c.cands[k], c.seq[k] = nc, seq
					c.heap = append(c.heap, int32(k))
					c.siftUp(k)
					if k+1 < slots {
						continue
					}
				} else {
					r := c.heap[0]
					c.cands[r], c.seq[r] = nc, seq
					c.siftDown(0)
				}
				bound = c.cands[c.heap[0]].f
			}
		}
	}
}

// freeBits returns word wi of the bitset of s's children: its unused h
// nodes, and bit hN, which stands for deleting the g node being decided.
// The set bits, words ascending, are the children in creation order.
func (c *pairCtx) freeBits(s *searchState, wi int) uint64 {
	free := ^uint64(0)
	if wi < len(s.used) {
		free = ^s.used[wi]
	}
	if rest := c.hN - 64*wi; rest < 63 {
		free &= 1<<(rest+1) - 1
	}
	return free
}

// childAt returns the child the lowest set bit of freeBits' word wi
// stands for: an h node, or unmapped.
func (c *pairCtx) childAt(wi int, free uint64) int32 {
	if i := 64*wi + bits.TrailingZeros64(free); i < c.hN {
		return int32(i)
	}
	return unmapped
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

// prepParent fills the tables every child of s, a state at the given
// depth, shares: the images in h of g node order[depth]'s processed,
// mapped neighbours as a bitset (c.img), how many of its neighbours are
// already deleted and already mapped (c.nDel, c.nMapped), and the
// heuristic's label-overlap sum at depth+1 under s's used-label histogram
// (c.common), which c.usedHist must hold.
func (c *pairCtx) prepParent(depth int, s *searchState) {
	clear(c.img)
	c.nDel, c.nMapped = 0, 0
	for _, j := range c.g.Neighbors(int(c.order[depth])) {
		switch pj := s.phi[j]; {
		case pj == unmapped:
			c.nDel++
		case pj >= 0:
			c.nMapped++
			c.img[pj/64] |= 1 << (pj % 64)
		}
	}
	if depth+1 < c.gN {
		c.common = c.commonAt(depth + 1)
	}
}

// child prices the child of s — a state at the given depth and frontier
// or candidate index pi — that maps g node u = order[depth] to h node x,
// or deletes u when x == unmapped, and reports whether its f is below
// bound, writing it to *nc only then. The heuristic is non-negative, so a
// child whose cost alone is not below bound is rejected before its
// heuristic is computed. prepParent must have run for s.
//
// Deleting u deletes it and its edges to every processed neighbour.
// Mapping it relabels on a label mismatch; an edge to a deleted neighbour
// is deleted; an edge to a mapped neighbour survives iff x is adjacent to
// the neighbour's image — matched of them, one popcount against c.img,
// since images are distinct — and is deleted otherwise; and every h edge
// from x to a used node that no g edge matches is inserted. At the last
// depth the forced insertions are folded into the cost so that f is
// exact; elsewhere f adds the heuristic, whose label-overlap sum is the
// parent's c.common less one when x's label was one the unprocessed g
// nodes could still have matched. Every cost is an integer, so each float
// sum here is exact.
func (c *pairCtx) child(nc *searchCand, depth int, pi int32, s *searchState, x int32, bound float64) bool {
	var d, usedNbr, unusedNbr int32
	if x == unmapped {
		d = 1 + c.nDel + c.nMapped
	} else {
		var matched int32
		for i, row := range c.hAdj[int(x)*c.hWords : (int(x)+1)*c.hWords] {
			matched += int32(bits.OnesCount64(row & c.img[i]))
			usedNbr += int32(bits.OnesCount64(row & s.used[i]))
			unusedNbr += int32(bits.OnesCount64(row &^ s.used[i]))
		}
		if c.gLab[c.order[depth]] != c.hLab[x] {
			d = 1
		}
		d += c.nDel + (c.nMapped - matched) + (usedNbr - matched)
	}
	cost := s.cost + float64(d)
	if !(cost < bound) {
		return false
	}

	usedN, bothUsed, remEdges := s.usedN, s.bothUsed, s.remEdges
	if x >= 0 {
		usedN++
		bothUsed += usedNbr
		remEdges -= unusedNbr
	}
	var f float64
	if depth+1 == c.gN {
		cost += float64(int32(c.hN)-usedN) + float64(c.hM-bothUsed)
		f = cost
	} else {
		common := c.common
		if x >= 0 {
			l := c.hLab[x]
			if c.hHist[l]-c.usedHist[l] <= c.suffixHist[(depth+1)*c.nLabels+int(l)] {
				common--
			}
		}
		f = cost + c.lowerBound(depth+1, common, usedN, remEdges)
	}
	if !(f < bound) {
		return false
	}
	*nc = searchCand{
		cost: cost, f: f, parent: pi, w: x, depth: int32(depth + 1),
		usedN: usedN, bothUsed: bothUsed, remEdges: remEdges,
	}
	return true
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
func (c *pairCtx) lowerBound(depth int, common, usedN, remEdges int32) float64 {
	remG := int32(c.gN - depth)
	remH := int32(c.hN) - usedN
	small, big := remG, remH
	if remH < remG {
		small, big = remH, remG
	}
	if common > small {
		common = small
	}
	lb := float64(big-small) + float64(small-common)

	eg, eh := c.suffixEdges[depth], remEdges
	if eg > eh {
		lb += float64(eg - eh)
	} else {
		lb += float64(eh - eg)
	}
	return lb
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
	if cmp := order.Cmp(c.cands[a].f, c.cands[b].f); cmp != 0 {
		return cmp > 0
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
