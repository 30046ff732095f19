package ged

import (
	"math"
	"math/bits"

	"github.com/lansearch/lan/internal/mat"
)

// noBound is the bound of a pass that marks every child: above any f.
const noBound int32 = math.MaxInt32

// vectorPopcnt is whether the host runs childRows' vector body (AVX-512
// with VPOPCNTQ), which runs only when vector is set too.
var vectorPopcnt = mat.HasVPOPCNTQ()

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

// priceChildren prices every child of s, a state at the given depth, in
// one pass: child x, which maps g node u = order[depth] to h node x, at
// index x of c.childF, c.childCost and c.childNbr (its f, its cost and
// its h neighbours already used), and the child that deletes u at index
// hN. c.childMask gets the children whose f is below bound, bit hN the
// deletion; the set bits, words ascending, are in creation order. The
// entries of used h nodes are unspecified. c.usedHist must hold s's
// used-label histogram.
//
// Deleting u deletes it and its edges to every processed neighbour.
// Mapping it relabels on a label mismatch; an edge to a deleted neighbour
// is deleted; an edge to a mapped neighbour survives iff x is adjacent to
// the neighbour's image — matched of them, one popcount against c.img,
// since images are distinct — and is deleted otherwise; and every h edge
// from x to a used node that no g edge matches is inserted. At the last
// depth the forced insertions are folded into the cost so that f is
// exact; elsewhere f adds the heuristic. Of the heuristic, the node term
// depends on x through its label alone — the label-overlap sum is the
// parent's c.common less one when x's label is one the unprocessed g
// nodes could still have matched — so it is one lookup in c.labTab, built
// here per parent; the edge term needs x's degree and used neighbours.
// Every term is a small integer.
func (c *pairCtx) priceChildren(depth int, s *searchState, bound int32) {
	c.prepParent(depth, s)
	hN := c.hN
	c.childF = grow(c.childF, hN+1)
	c.childCost = grow(c.childCost, hN+1)
	c.childNbr = grow(c.childNbr, hN+1)
	c.childMask = grow(c.childMask, hN/64+1)
	c.labTab = grow(c.labTab, c.nLabels)

	last := depth+1 == c.gN
	remH := int32(hN) - s.usedN - 1 // unused h nodes below a mapping child
	var gap int32
	if last {
		// Nothing of g is left: every unused h node and every h edge
		// not both of whose ends are used is inserted.
		for l := range c.labTab {
			c.labTab[l] = remH
		}
		gap = c.hM - s.bothUsed
	} else {
		remG := int32(c.gN - depth - 1)
		small, big := min(remG, remH), max(remG, remH)
		sfx := c.suffixHist[(depth+1)*c.nLabels:]
		for l := range c.labTab {
			common := c.common
			if c.hHist[l]-c.usedHist[l] <= sfx[l] {
				common--
			}
			c.labTab[l] = (big - small) + (small - min(common, small))
		}
		gap = c.suffixEdges[depth+1] - s.remEdges
	}
	base := s.cost + c.nDel + c.nMapped
	c.childMask[hN/64] = 0 // the deletion's word, when no row is in it
	c.childRows(s.used, last, base, gap, c.gLab[c.order[depth]], bound)

	cost := base + 1
	var f int32
	if last {
		cost += int32(hN) - s.usedN + c.hM - s.bothUsed
		f = cost
	} else {
		f = cost + c.lowerBound(depth+1, c.common, s.usedN, s.remEdges)
	}
	c.childF[hN], c.childCost[hN], c.childNbr[hN] = f, cost, 0
	c.priced += hN - int(s.usedN) + 1
	if f < bound {
		c.childMask[hN/64] |= 1 << (hN % 64)
	}
}

// childRows prices the mapping children of a parent whose used h nodes
// are used, and sets the first hWords words of c.childMask to those whose
// f is below bound, the deletion's bit (when it falls among them) clear:
// for each unused h node x, with matched = |adj(x) ∩ img| and nbr =
// |adj(x) ∩ used|,
//
//	cost = base + nbr − 2·matched + [hLab[x] ≠ gl]
//	f    = cost + labTab[hLab[x]] + |gap + hDeg[x] − nbr|
//
// and at the last depth the degree is left out of the edge term and the
// cost is f. The vector body (AVX-512, eight one-word rows per
// instruction) runs on rows of one word and depths before the last, and
// is held to the Go body bit for bit on every unused row.
func (c *pairCtx) childRows(used []uint64, last bool, base, gap, gl, bound int32) {
	if vector && vectorPopcnt && c.hWords == 1 && !last {
		childRowsAVX512(&c.childF[0], &c.childCost[0], &c.childNbr[0], &c.childMask[0],
			&c.hAdj[0], &c.hLab[0], &c.hDeg[0], &c.labTab[0], c.hN, c.img[0], used[0], base, gap, gl, bound)
		return
	}
	c.childRowsGo(used, last, base, gap, gl, bound)
}

// childRowsGo is childRows' portable body.
func (c *pairCtx) childRowsGo(used []uint64, last bool, base, gap, gl, bound int32) {
	words := c.hWords
	for wi, u := range used {
		c.childMask[wi] = 0
		free := ^u
		if rest := c.hN - 64*wi; rest < 64 {
			free &= 1<<rest - 1
		}
		for ; free != 0; free &= free - 1 {
			x := 64*wi + bits.TrailingZeros64(free)
			var matched, nbr int32
			for i, r := range c.hAdj[x*words : (x+1)*words] {
				matched += int32(bits.OnesCount64(r & c.img[i]))
				nbr += int32(bits.OnesCount64(r & used[i]))
			}
			l := c.hLab[x]
			cost := base + nbr - 2*matched
			if l != gl {
				cost++
			}
			e := gap - nbr
			if !last {
				e += c.hDeg[x]
			}
			f := cost + c.labTab[l] + abs32(e)
			if last {
				cost = f
			}
			c.childF[x], c.childCost[x], c.childNbr[x] = f, cost, nbr
			if f < bound {
				c.childMask[wi] |= 1 << (x % 64)
			}
		}
	}
}

// childCand is child x of s, a state at the given depth and frontier or
// candidate index pi, as priceChildren priced it.
func (c *pairCtx) childCand(depth int, pi int32, s *searchState, x int) searchCand {
	nc := searchCand{
		cost: c.childCost[x], f: c.childF[x], parent: pi, w: unmapped, depth: int32(depth + 1),
		usedN: s.usedN, bothUsed: s.bothUsed, remEdges: s.remEdges,
	}
	if x < c.hN {
		nbr := c.childNbr[x]
		nc.w = int32(x)
		nc.usedN++
		nc.bothUsed += nbr
		nc.remEdges -= c.hDeg[x] - nbr
	}
	return nc
}
