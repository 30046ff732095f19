package ged

import (
	"math"
	"math/bits"
)

// The assignment problem behind both bipartite bounds is square, of side
// n = n1+n2, and most of it is padding (sizeCosts has the layout):
//
//	            columns [0, n2)           columns [n2, n)
//	row i       sub[i][j]                 del[i] at n2+i, infeasible elsewhere
//	row n1+k    ins[k] at k,              0
//	            infeasible elsewhere
//
// Deleting every node of one graph and inserting every node of the other is
// a perfect matching on finite cells, so an optimal solver never assigns an
// infeasible cell, and a cell that is never assigned decides nothing. The
// solvers below are the textbook algorithms, phase for phase and tie for
// tie — refSolveHungarian and refSolveJV in reference_test.go, which run
// on the dense matrix, return the same assignment array on every instance
// — but each phase is written as what it is on this matrix. What differs
// from the dense solvers, none of it changing a comparison's outcome:
//
//   - only a row's finite cells are read: n2+1 of them in a node row, n1+1
//     in a padding row;
//   - a phase that grows the matching by one row is a shortest augmenting
//     path search (augment), whose own departures from the dense loops are
//     listed at augment;
//   - a free node row whose cheapest cell is in a free column takes that
//     cell without a search (settle): the search's first scan would end
//     there, moving no potential;
//   - a free padding row first looks for an augmenting path among the
//     cells of zero reduced cost (walk), which is the part of the search
//     at distance 0; only when there is none does the search run, from the
//     start. The node rows' zero cells are kept, as a bitmask over the
//     columns, from one walk to the next while no potential moves;
//   - a node row's work — the search's relaxation of the row, its zero
//     cells, its cheapest cell for settle, the search's rescan for the next
//     level, and the substitution block itself (fillCosts) — runs on the
//     row kernels in rows.go: four cells per AVX instruction on amd64, the
//     same floats and the same columns as the Go loops they replaced, which
//     are kept as their portable bodies.
//
// The row -> column assignment is left in c.assign[:n], columns -> rows in
// c.ia[:n] (-1 while free) and the column potentials in c.fa[:n].

// startSolve sizes the solvers' vectors for the instance in the arena and
// empties the matching; the potentials start at zero.
func (c *pairCtx) startSolve() {
	c.solves++
	n := c.n1 + c.n2
	c.assign, c.ia, c.ic = grow(c.assign, n), grow(c.ia, n), grow(c.ic, n)
	c.fa, c.fb = grow(c.fa, n), grow(c.fb, n)
	c.scanned = grow(c.scanned, n)
	w := (n + 63) / 64
	c.lvl, c.seen, c.cand = grow(c.lvl, w), grow(c.seen, w), grow(c.cand, w)
	c.zeroMask = grow(c.zeroMask, c.n1*w)
	c.zeroOK, c.zeroTag, c.zeroBase = grow(c.zeroOK, c.n1), grow(c.zeroTag, c.n1), grow(c.zeroBase, c.n1)
	c.epoch++
	for j := range c.assign {
		c.assign[j], c.ia[j] = -1, -1
	}
	clear(c.fa)
}

// solveHungarian solves the instance with the potentials formulation of the
// Hungarian algorithm (Kuhn–Munkres): starting from the empty matching and
// zero potentials, one shortest augmenting path per row, in row order.
func (c *pairCtx) solveHungarian() {
	c.startSolve()
	for f := 0; f < c.n1+c.n2; f++ {
		c.extend(int32(f))
	}
}

// extend grows the matching by free row f: by settle or walk where they
// find the row's augmenting path, else by the search.
func (c *pairCtx) extend(f int32) {
	if int(f) < c.n1 {
		if c.settle(f) {
			return
		}
	} else if c.walk(f) {
		return
	}
	c.augment(f)
}

// twoMin keeps the two smallest values offered to it, each with the first
// column that attained it.
type twoMin struct {
	u1, u2 float64
	j1, j2 int32
}

func (m *twoMin) offer(r float64, j int) {
	if r < m.u1 {
		m.u2, m.j2 = m.u1, m.j1
		m.u1, m.j1 = r, int32(j)
	} else if r < m.u2 {
		m.u2, m.j2 = r, int32(j)
	}
}

// solveJV solves the instance with the Jonker–Volgenant algorithm: column
// reduction, augmenting row reduction, then shortest augmenting paths for
// the remaining free rows.
func (c *pairCtx) solveJV() {
	c.startSolve()
	n1, n2 := c.n1, c.n2
	n := n1 + n2
	sub, del, ins := c.sub, c.del, c.ins
	rowsol, colsol, v := c.assign, c.ia, c.fa

	// Column reduction, last column first: a column's potential is its
	// minimum, and it goes to the first row attaining it when that row is
	// free. A padding column holds its node's deletion cost and a zero in
	// every padding row; a node column its substitution costs and, below
	// them, its insertion cost.
	for j := n - 1; j >= 0; j-- {
		var imin int
		var vmin float64
		if j >= n2 {
			imin, vmin = j-n2, del[j-n2]
			if n2 > 0 && 0 < vmin {
				imin, vmin = n1, 0
			}
		} else {
			imin, vmin = n1+j, ins[j]
			for i := n1 - 1; i >= 0; i-- {
				if cij := sub[i*n2+j]; !(vmin < cij) {
					imin, vmin = i, cij
				}
			}
		}
		v[j] = vmin
		if rowsol[imin] == -1 {
			rowsol[imin] = int32(j)
			colsol[j] = int32(imin)
		}
	}

	// Augmenting row reduction (two passes) for unassigned rows, following
	// the original LAP formulation: take the best column, adjusting its
	// potential by the gap to the second-best; a bumped row is retried
	// immediately when the potential strictly decreased, otherwise it is
	// deferred to the next pass. A free row has two finite cells at least:
	// with either graph empty the column reduction assigns every row.
	c.ib = grow(c.ib, n)[:0]
	for i := 0; i < n; i++ {
		if rowsol[i] == -1 {
			c.ib = append(c.ib, int32(i))
		}
	}
	// retryBudget caps the immediate-retry ping-pong; rows beyond the
	// budget are deferred to the exact augmentation phase below, which is
	// correct for any dual-feasible warm start.
	retryBudget := 20*n + 100
	for pass := 0; pass < 2; pass++ {
		// c.ib is this pass's free list, c.ic collects the next one.
		free := c.ib
		k := 0
		prevLen := len(free)
		c.ic = c.ic[:0]
		for k < prevLen {
			i := free[k]
			k++
			// Two smallest reduced costs in row i, columns ascending.
			m := twoMin{u1: math.Inf(1), u2: math.Inf(1), j1: -1, j2: -1}
			if int(i) < n1 {
				for j, cij := range sub[int(i)*n2 : (int(i)+1)*n2] {
					m.offer(cij-v[j], j)
				}
				m.offer(del[i]-v[n2+int(i)], n2+int(i))
			} else {
				m.offer(ins[int(i)-n1]-v[int(i)-n1], int(i)-n1)
				for j := n2; j < n; j++ {
					m.offer(-v[j], j)
				}
			}
			j1, i0 := m.j1, colsol[m.j1]
			if m.u1 < m.u2 {
				v[j1] -= m.u2 - m.u1
			} else if i0 >= 0 && m.j2 >= 0 {
				j1 = m.j2
				i0 = colsol[j1]
			}
			rowsol[i] = j1
			colsol[j1] = i
			if i0 >= 0 {
				rowsol[i0] = -1
				if m.u1 < m.u2 && retryBudget > 0 {
					// Strict potential decrease: retry the bumped row now.
					retryBudget--
					k--
					free[k] = i0
				} else {
					c.ic = append(c.ic, i0)
				}
			}
		}
		c.ib, c.ic = c.ic, c.ib
	}

	// The rows still free are in c.ib; walk and augment take c.ic for pred.
	c.ic = grow(c.ic, n)
	for _, f := range c.ib {
		c.extend(f)
	}
}

// cell returns the cost of a finite cell of the square matrix.
func (c *pairCtx) cell(i, j int) float64 {
	switch {
	case i < c.n1 && j < c.n2:
		return c.sub[i*c.n2+j]
	case i < c.n1:
		return c.del[i]
	case j < c.n2:
		return c.ins[j]
	}
	return 0
}

// joinLevel puts unscanned column j, whose distance d is not above level,
// into the level set and returns the level: d itself when it undercuts the
// level, which then starts over with j alone.
func joinLevel(lvl []uint64, j int, d, level float64) float64 {
	if d < level {
		clear(lvl)
		level = d
	}
	lvl[j>>6] |= 1 << (j & 63)
	return level
}

// scan is a column augment has scanned, with its final distance.
type scan struct {
	j int32
	d float64
}

// augment grows the matching by free row f along a shortest augmenting
// path: Dijkstra from f to the nearest free column over the reduced costs
// cost[i][j] − u[i] − v[j], then the potential update that keeps them
// non-negative, then the flip. The row potentials are implicit: a matched
// row's assigned cell is tight, u[i] = cost[i][rowsol[i]] − v[rowsol[i]],
// and a free row's is zero. Among the unscanned columns at the smallest
// distance the lowest is scanned next, as the dense solvers' argmin loops
// have it. Five things are done differently from those loops, none of which
// changes the outcome of a comparison:
//
//   - only the finite cells of the row that enters the tree are relaxed;
//   - a scanned column's distance becomes −∞ (its final distance moves to
//     the scanned list), so no finite offer undercuts it and the relax
//     loops need no scanned test;
//   - distances are absolute and the potentials are settled once, after the
//     search, for the scanned columns only (column j moves by dist[j] −
//     dist[end]), where the dense Hungarian lowered every entry by the step
//     after each scan — the cells being multiples of ½, both orders of
//     summing are exact and equal;
//   - the unscanned columns that sit at the current distance level are kept
//     in a bitset, so the next column is the lowest set bit and the argmin
//     scan over all columns runs once per level, not once per column. Levels
//     only rise while the reduced costs are non-negative; joinLevel keeps
//     the set right even if one did not;
//   - a padding row offers every padding column base − v[j], so it is
//     passed over unless its base is below that of every padding row before
//     it in this search.
func (c *pairCtx) augment(f int32) {
	n1, n2 := c.n1, c.n2
	n := n1 + n2
	sub, v, dist := c.sub, c.fa[:n], c.fb[:n]
	colsol, pred := c.ia[:n], c.ic[:n]
	scanned, lvl, cand := c.scanned[:0:n], c.lvl[:(n+63)/64], c.cand
	inf, ninf := math.Inf(1), math.Inf(-1)
	c.searches++
	for j := range dist {
		dist[j] = inf
	}
	clear(lvl)

	// Row i enters the tree offering column j the distance
	// base + cost[i][j] − v[j]; level is the distance of the columns in lvl.
	i, base, level, padBase := f, 0.0, 0.0, inf
	for {
		// The row's diagonal cell (j1, c1) comes after its block.
		var j1 int
		var c1 float64
		if int(i) < n1 {
			relax(dist[:n2], pred[:n2], sub[int(i)*n2:][:n2], v[:n2], base, i, level, cand)
			level = joinOffers(lvl, cand[:(n2+63)/64], dist, level)
			j1, c1 = n2+int(i), c.del[i]
		} else {
			if base < padBase {
				padBase = base
				vp := v[n2:]
				dp, pp := dist[n2:][:len(vp)], pred[n2:][:len(vp)]
				for k, vk := range vp {
					if d := base - vk; d < dp[k] {
						dp[k], pp[k] = d, i
						if !(level < d) {
							level = joinLevel(lvl, n2+k, d, level)
						}
					}
				}
			}
			j1, c1 = int(i)-n1, c.ins[int(i)-n1]
		}
		if d := base + c1 - v[j1]; d < dist[j1] {
			dist[j1], pred[j1] = d, i
			if !(level < d) {
				level = joinLevel(lvl, j1, d, level)
			}
		}

		// Scan the lowest column of the level set; when the set is empty,
		// the next level is the smallest distance among the unscanned.
		j := lowestBit(lvl)
		if j < 0 {
			level = levelSet(dist, lvl)
			j = lowestBit(lvl)
		}
		lvl[j>>6] &^= 1 << (j & 63)
		c.popped++
		d := dist[j]
		dist[j] = ninf
		scanned = append(scanned, scan{int32(j), d})
		if colsol[j] < 0 {
			break
		}
		i = colsol[j]
		base = d - (c.cell(int(i), j) - v[j])
	}

	last := scanned[len(scanned)-1]
	for _, s := range scanned {
		if s.d < last.d {
			c.epoch++ // a potential moves: every cached zero cell is stale
		}
		v[s.j] += s.d - last.d
	}
	c.flip(f, last.j)
}

// flip assigns column j to its pred and walks the augmenting path back to
// free row f, handing each row on it the column it was reached through.
func (c *pairCtx) flip(f int32, j int32) {
	rowsol, colsol, pred := c.assign, c.ia, c.ic
	for {
		i := pred[j]
		colsol[j] = i
		j, rowsol[i] = rowsol[i], j
		if i == f {
			return
		}
	}
}

// settle assigns free node row f the column augment's first scan would
// take — the lowest among those of the smallest offer cost[f][j] − v[j] —
// when that column is free, and reports whether it did. The search would
// end there with a path of one cell, moving that column's potential by
// d − d (+0: a potential is never −0, so not at all), so settle is the
// search on the one path that needs none of its state.
func (c *pairCtx) settle(f int32) bool {
	n2 := c.n2
	v := c.fa
	// The base is 0: base + cost − v[j], as augment computes it.
	jm, dm := rowArgmin(c.sub[int(f)*n2:][:n2], v[:n2])
	if d := 0 + c.del[f] - v[n2+int(f)]; d < dm {
		jm = n2 + int(f)
	}
	if c.ia[jm] >= 0 {
		return false
	}
	c.assign[f], c.ia[jm] = int32(jm), f
	return true
}

// walk grows the matching by free padding row f along a path of cells of
// zero reduced cost, when there is one, and reports whether it did. It is
// augment's search while its distance level is 0 — the same columns
// scanned in the same order, each with the same pred — stopped where that
// level has no free column, or where an offer falls below it (JV's
// positive potentials allow one): there augment runs the search from the
// start. A path at distance 0 moves no potential (each scanned column's
// by 0 − 0), and the cell it assigns each row on it is tight, so every
// row's implicit potential stays what it was. What it saves:
//
//   - a node row entering the tree offers only its zero cells, a mask over
//     the columns kept in zeroMask between walks while no potential moves,
//     and it reaches them a word at a time: the columns of the mask not
//     seen yet join the level set, each with the row as pred — which
//     column joins first does not matter, the set being scanned lowest
//     column first;
//   - the padding columns that padding rows hold at potential 0 are not
//     scanned: such a row enters at base 0, which is not below the root's,
//     so it offers only its insertion cell, and that is passed over when
//     its reduced cost is above 0, checked before the column is skipped;
//   - no distance vector is reset: a bitset marks the columns reached.
func (c *pairCtx) walk(f int32) bool {
	n1, n2 := c.n1, c.n2
	n := n1 + n2
	v, ins := c.fa[:n], c.ins
	colsol, pred := c.ia[:n], c.ic[:n]
	lvl, seen := c.lvl[:(n+63)/64], c.seen[:(n+63)/64]
	clear(lvl)
	clear(seen)

	// The root offers every padding column 0 − v[j] and its insertion
	// cell, as augment's first row does.
	for j := n2; j < n; j++ {
		d := 0 - v[j]
		if d < 0 {
			return false
		}
		if d == 0 {
			if r := colsol[j]; int(r) >= n1 {
				if d := 0 + ins[int(r)-n1] - v[int(r)-n1]; d > 0 {
					continue
				} else if d < 0 {
					return false
				}
			}
			reachOne(lvl, seen, pred, j, f)
		}
	}
	k := int(f) - n1
	if d := 0 + ins[k] - v[k]; d < 0 {
		return false
	} else if d == 0 {
		reachOne(lvl, seen, pred, k, f)
	}

	padBase := 0.0
	for {
		j := lowestBit(lvl)
		if j < 0 {
			return false
		}
		lvl[j>>6] &^= 1 << (j & 63)
		c.popped++
		i := colsol[j]
		if i < 0 {
			c.flip(f, int32(j))
			return true
		}
		base := 0 - (c.cell(int(i), j) - v[j])
		if int(i) < n1 {
			mask, ok := c.zeroMaskOf(i, base)
			if !ok {
				return false
			}
			for w, word := range mask {
				word &^= seen[w]
				seen[w] |= word
				lvl[w] |= word
				for ; word != 0; word &= word - 1 {
					pred[w<<6+bits.TrailingZeros64(word)] = i
				}
			}
			continue
		}
		if base < padBase {
			padBase = base
			for jj := n2; jj < n; jj++ {
				if d := base - v[jj]; d < 0 {
					return false
				} else if d == 0 {
					reachOne(lvl, seen, pred, jj, i)
				}
			}
		}
		k := int(i) - n1
		if d := base + ins[k] - v[k]; d < 0 {
			return false
		} else if d == 0 {
			reachOne(lvl, seen, pred, k, i)
		}
	}
}

// reachOne puts column j into walk's level set, reached from row i, unless
// a row reached it before.
func reachOne(lvl, seen []uint64, pred []int32, j int, i int32) {
	if bit := uint64(1) << (j & 63); seen[j>>6]&bit == 0 {
		seen[j>>6] |= bit
		lvl[j>>6] |= bit
		pred[j] = i
	}
}

// zeroMaskOf returns node row i's cells of zero reduced cost at base — the
// columns j where base + cost[i][j] − v[j] is 0, as a mask over the n
// columns — and false when one of the row's cells is below zero. The mask
// is computed once per row and potential epoch and kept while the row
// enters at the same base, which it does while the potentials stand still:
// the row's assigned cell may change along a path at distance 0, but the
// new one is tight, so cost − v, and with it the base, is the same float
// (every cell being a multiple of ½, the sums are exact; the bits are
// checked anyway).
func (c *pairCtx) zeroMaskOf(i int32, base float64) ([]uint64, bool) {
	n2 := c.n2
	w := (c.n1 + n2 + 63) / 64
	mask := c.zeroMask[int(i)*w:][:w]
	if c.zeroTag[i] == c.epoch && c.zeroBase[i] == math.Float64bits(base) {
		return mask, c.zeroOK[i]
	}
	c.zeroTag[i], c.zeroBase[i] = c.epoch, math.Float64bits(base)
	v := c.fa
	ok := zeroMask(mask, c.sub[int(i)*n2:][:n2], v[:n2], base)
	if ok {
		clear(mask[(n2+63)/64:])
		if d := base + c.del[i] - v[n2+int(i)]; d < 0 {
			ok = false
		} else if d == 0 {
			j := n2 + int(i)
			mask[j>>6] |= 1 << (j & 63)
		}
	}
	c.zeroOK[i] = ok
	return mask, ok
}

// lowestBit returns the index of the lowest set bit of the set, or -1 when
// it is empty.
func lowestBit(set []uint64) int {
	for w, word := range set {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}
