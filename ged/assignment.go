package ged

import "math"

// infCost marks an infeasible assignment cell.
const infCost = 1e9

// The solvers work on the arena's flat row-major n x n matrix c.cost[:n*n]
// and leave the row -> column assignment in c.assign[:n]. Their working
// vectors are the arena's fa/fb/fc, ia/ib/ic and mark scratch.

// solveHungarian solves the square min-cost assignment problem with the
// O(n^3) potentials formulation of the Hungarian algorithm (Kuhn–Munkres).
//
//lan:hotpath
func (c *pairCtx) solveHungarian(n int) {
	c.solves++
	cost := c.cost[:n*n]
	c.assign = grow(c.assign, n)
	// 1-indexed potentials formulation.
	c.fa, c.fb, c.fc = grow(c.fa, n+1), grow(c.fb, n+1), grow(c.fc, n+1)
	c.ia, c.ib, c.mark = grow(c.ia, n+1), grow(c.ib, n+1), grow(c.mark, n+1)
	u, v, minv := c.fa, c.fb, c.fc
	p := c.ia   // p[j]: row matched to column j (0 = none)
	way := c.ib // way[j]: previous column on the alternating path
	used := c.mark
	clear(u)
	clear(v)
	clear(p)
	clear(way)
	for i := int32(1); i <= int32(n); i++ {
		p[0] = i
		j0 := int32(0)
		clear(used)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := int32(0)
			// Columns 1..n as 0-based views, so the scan runs without
			// bounds checks.
			row, ui0 := cost[int(i0-1)*n:int(i0)*n], u[i0]
			vs, minvs, useds, ways := v[1:n+1], minv[1:n+1], used[1:n+1], way[1:n+1]
			for j, cij := range row {
				if useds[j] {
					continue
				}
				cur := cij - ui0 - vs[j]
				if cur < minvs[j] {
					minvs[j] = cur
					ways[j] = j0
				}
				if minvs[j] < delta {
					delta = minvs[j]
					j1 = int32(j + 1)
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			c.assign[p[j]-1] = int32(j - 1)
		}
	}
}

// solveJV solves the square min-cost assignment problem with the
// Jonker–Volgenant algorithm: column reduction, augmenting row reduction,
// then shortest augmenting paths for the remaining free rows.
//
//lan:hotpath
func (c *pairCtx) solveJV(n int) {
	c.solves++
	cost := c.cost[:n*n]
	c.assign, c.ia, c.fa = grow(c.assign, n), grow(c.ia, n), grow(c.fa, n)
	rowsol := c.assign // rowsol[i]: column assigned to row i
	colsol := c.ia     // colsol[j]: row assigned to column j
	v := c.fa          // column potentials
	for i := range rowsol {
		rowsol[i] = -1
		colsol[i] = -1
	}

	// Column reduction: assign each column to its minimal row when free.
	for j := n - 1; j >= 0; j-- {
		imin := 0
		for i := 1; i < n; i++ {
			if cost[i*n+j] < cost[imin*n+j] {
				imin = i
			}
		}
		v[j] = cost[imin*n+j]
		if rowsol[imin] == -1 {
			rowsol[imin] = int32(j)
			colsol[j] = int32(imin)
		}
	}

	// Augmenting row reduction (two passes) for unassigned rows, following
	// the original LAP formulation: take the best column, adjusting its
	// potential by the gap to the second-best; a bumped row is retried
	// immediately when the potential strictly decreased, otherwise it is
	// deferred to the next pass.
	c.ib, c.ic = grow(c.ib, n)[:0], grow(c.ic, n)[:0]
	for i := 0; i < n; i++ {
		if rowsol[i] == -1 {
			c.ib = append(c.ib, int32(i))
		}
	}
	// retryBudget caps the immediate-retry ping-pong, which can fail to
	// make progress under floating-point ties; rows beyond the budget are
	// deferred to the exact augmentation phase below, which is correct for
	// any dual-feasible warm start.
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
			// Two smallest reduced costs in row i.
			j1, j2 := int32(-1), int32(-1)
			u1, u2 := math.Inf(1), math.Inf(1)
			for j, cij := range cost[int(i)*n : int(i+1)*n] {
				r := cij - v[j]
				if r < u1 {
					u2, j2 = u1, j1
					u1, j1 = r, int32(j)
				} else if r < u2 {
					u2, j2 = r, int32(j)
				}
			}
			i0 := colsol[j1]
			if u1 < u2 {
				v[j1] -= u2 - u1
			} else if i0 >= 0 && j2 >= 0 {
				j1 = j2
				i0 = colsol[j1]
			}
			rowsol[i] = j1
			colsol[j1] = i
			if i0 >= 0 {
				rowsol[i0] = -1
				if u1 < u2 && retryBudget > 0 {
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

	// Shortest augmenting path for each remaining free row (Dijkstra on
	// reduced costs).
	c.fb, c.ic, c.mark = grow(c.fb, n), grow(c.ic, n), grow(c.mark, n)
	d, pred, done := c.fb[:n], c.ic[:n], c.mark[:n]
	v = v[:n]
	for _, f := range c.ib {
		clear(done)
		// jmin is the unscanned column with minimal d (the first among
		// equals); every pass over the columns that changes d finds the
		// next one as it goes.
		jmin, dmin := -1, 0.0
		for j, cfj := range cost[int(f)*n : int(f+1)*n] {
			d[j] = cfj - v[j]
			pred[j] = f
			if jmin == -1 || d[j] < dmin {
				jmin, dmin = j, d[j]
			}
		}
		endj := int32(-1)
		var mu float64
		for {
			done[jmin] = true
			mu = dmin
			if colsol[jmin] == -1 {
				endj = int32(jmin)
				break
			}
			// Relax through the row currently owning jmin.
			i := colsol[jmin]
			row := cost[int(i)*n : int(i+1)*n]
			own := row[jmin] - v[jmin]
			jmin = -1
			for j, cij := range row {
				if done[j] {
					continue
				}
				if nd := mu + cij - v[j] - own; nd < d[j] {
					d[j] = nd
					pred[j] = i
				}
				if jmin == -1 || d[j] < dmin {
					jmin, dmin = j, d[j]
				}
			}
		}
		// Update potentials for scanned columns.
		for j := 0; j < n; j++ {
			if done[j] {
				v[j] += d[j] - mu
			}
		}
		// Augment along the path.
		for {
			i := pred[endj]
			colsol[endj] = i
			endj, rowsol[i] = rowsol[i], endj
			if i == f {
				break
			}
		}
	}
}
