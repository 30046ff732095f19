package ged

// The bipartite heuristics reduce GED to a square (n1+n2)x(n1+n2)
// assignment problem in the style of Riesen & Bunke: the top-left block
// holds substitution costs, the top-right diagonal deletion costs, the
// bottom-left diagonal insertion costs and the bottom-right block zeros;
// every other cell is infeasible. Solving the assignment yields a node
// mapping whose induced edit cost (mappingCost) is an upper bound of the
// exact GED. Only the cells that carry information are stored — the n1 x n2
// substitution block and the two diagonals as vectors — built into the
// arena from interned label ids, with rows standing for the caller's first
// graph whichever way acquire oriented the pair: the assignment a solver
// settles on among equal-cost ones depends on it.

// hungarian returns the Riesen–Bunke bound of the loaded pair: the
// structural cost model solved with the Hungarian algorithm.
func (c *pairCtx) hungarian() float64 {
	c.fillCosts(true)
	c.solveHungarian()
	return c.assignedCost()
}

// vj returns the VJ bound of the loaded pair: plain label costs solved
// with Jonker–Volgenant.
func (c *pairCtx) vj() float64 {
	c.fillCosts(false)
	c.solveJV()
	return c.assignedCost()
}

// sizeCosts makes room for an n1 x n2 instance: sub is the row-major
// substitution block, del[i] the cost of deleting row i's node (cell
// (i, n2+i) of the square matrix), ins[k] that of inserting column k's
// (cell (n1+k, k)).
func (c *pairCtx) sizeCosts(n1, n2 int) {
	c.n1, c.n2 = n1, n2
	c.cost = grow(c.cost, n1*n2+n1+n2)
	c.sub, c.del, c.ins = c.cost[:n1*n2], c.cost[n1*n2:n1*n2+n1], c.cost[n1*n2+n1:]
}

// fillCosts builds the instance of the loaded pair. Substitution costs the
// label mismatch; with structural set (Riesen–Bunke) it adds half the
// incident-edge count difference, and a deletion or insertion charges the
// node plus half its incident edges — each unmatched incident edge is
// shared by two nodes. Without it (the VJ baseline) the cells hold label
// costs only.
//
// Every cell is a small multiple of ½ (TestCostCellsAreHalfIntegers), so
// the solvers' sums and differences are exact and any two algebraically
// equal ways of computing a potential give the same float: that is what
// makes the solvers in assignment.go bit-identical to the dense reference
// ones. A cost model with other values would leave them correct, but no
// longer guaranteed to break ties between equal-cost assignments the way
// the reference does.
func (c *pairCtx) fillCosts(structural bool) {
	a, b, aLab, bLab := c.g, c.h, c.gLab, c.hLab
	if c.swapped {
		a, b, aLab, bLab = b, a, bLab, aLab
	}
	n1, n2 := a.N(), b.N()
	c.sizeCosts(n1, n2)
	for i := 0; i < n1; i++ {
		row := c.sub[i*n2 : (i+1)*n2]
		for j := range row {
			v := 0.0
			if aLab[i] != bLab[j] {
				v = 1
			}
			if structural {
				dd := a.Degree(i) - b.Degree(j)
				if dd < 0 {
					dd = -dd
				}
				v += float64(dd) / 2
			}
			row[j] = v
		}
		c.del[i] = 1
		if structural {
			c.del[i] += float64(a.Degree(i)) / 2
		}
	}
	for k := range c.ins {
		c.ins[k] = 1
		if structural {
			c.ins[k] += float64(b.Degree(k)) / 2
		}
	}
}

// assignedCost converts the assignment over the padded square matrix
// into a node mapping of g into h and returns its induced edit cost. Rows
// below n1 assigned to columns below n2 are substitutions; every other
// node is deleted or inserted. On a swapped pair the rows are h's nodes,
// so the mapping is read backwards — unit costs make its cost the same.
func (c *pairCtx) assignedCost() float64 {
	phi := grow(c.phiA, c.gN)
	c.phiA = phi
	if !c.swapped {
		for u := range phi {
			phi[u] = unmapped
			if w := c.assign[u]; int(w) < c.hN {
				phi[u] = w
			}
		}
		return c.mappingCost(phi)
	}
	for u := range phi {
		phi[u] = unmapped
	}
	for w := 0; w < c.hN; w++ {
		if u := c.assign[w]; int(u) < c.gN {
			phi[u] = int32(w)
		}
	}
	return c.mappingCost(phi)
}
