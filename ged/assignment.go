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
// solvers below therefore look only at a row's finite cells: n2+1 of them
// in a node row, n1+1 in a padding row. They are the textbook algorithms,
// phase for phase and tie for tie — refSolveHungarian and refSolveJV in
// reference_test.go, which run on the dense matrix, return the same
// assignment array on every instance — but each phase is written as what it
// is on this matrix, a shortest-augmenting-path search (augment).
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
	c.scanned, c.lvl = grow(c.scanned, n), grow(c.lvl, (n+63)/64)
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
		c.augment(int32(f))
	}
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

	// The rows still free are in c.ib; augment takes c.ic for its own use.
	c.ic = grow(c.ic, n)
	for _, f := range c.ib {
		c.augment(f)
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
	rowsol, colsol, pred := c.assign[:n], c.ia[:n], c.ic[:n]
	scanned, lvl := c.scanned[:0:n], c.lvl[:(n+63)/64]
	inf, ninf := math.Inf(1), math.Inf(-1)
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
			row := sub[int(i)*n2:][:n2]
			vr, dr, pr := v[:len(row)], dist[:len(row)], pred[:len(row)]
			for j, cij := range row {
				if d := base + cij - vr[j]; d < dr[j] {
					dr[j], pr[j] = d, i
					if !(level < d) {
						level = joinLevel(lvl, j, d, level)
					}
				}
			}
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
			level = inf
			for j, d := range dist {
				if d > ninf && !(level < d) {
					level = joinLevel(lvl, j, d, level)
				}
			}
			j = lowestBit(lvl)
		}
		lvl[j>>6] &^= 1 << (j & 63)
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
		v[s.j] += s.d - last.d
	}
	for j := last.j; ; {
		i := pred[j]
		colsol[j] = i
		j, rowsol[i] = rowsol[i], j
		if i == f {
			return
		}
	}
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
