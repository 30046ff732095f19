package ged

// The bipartite heuristics reduce GED to a square (n1+n2)x(n1+n2)
// assignment problem in the style of Riesen & Bunke: the top-left block
// holds substitution costs, the top-right diagonal deletion costs, the
// bottom-left diagonal insertion costs and the bottom-right block zeros.
// Solving the assignment yields a node mapping whose induced edit cost
// (mappingCost) is an upper bound of the exact GED. The matrix is built
// flat into the arena from interned label ids, with rows standing for the
// caller's first graph whichever way acquire oriented the pair: the
// assignment a solver settles on among equal-cost ones depends on it.

// hungarian returns the Riesen–Bunke bound of the loaded pair: the
// structural cost model solved with the Hungarian algorithm.
func (c *pairCtx) hungarian() float64 {
	c.solveHungarian(c.fillCosts(true))
	return c.assignedCost()
}

// vj returns the VJ bound of the loaded pair: plain label costs solved
// with Jonker–Volgenant.
func (c *pairCtx) vj() float64 {
	c.solveJV(c.fillCosts(false))
	return c.assignedCost()
}

// fillCosts builds the square cost matrix into c.cost and returns its
// side n1+n2. Substitution costs the label mismatch; with structural set
// (Riesen–Bunke) it adds half the incident-edge count difference, and a
// deletion or insertion charges the node plus half its incident edges —
// each unmatched incident edge is shared by two nodes. Without it (the VJ
// baseline) the matrix holds label costs only.
//
//lan:hotpath
func (c *pairCtx) fillCosts(structural bool) int {
	a, b, aLab, bLab := c.g, c.h, c.gLab, c.hLab
	if c.swapped {
		a, b, aLab, bLab = b, a, bLab, aLab
	}
	n1, n2 := a.N(), b.N()
	n := n1 + n2
	c.cost = grow(c.cost, n*n)
	for i := 0; i < n1; i++ {
		row := c.cost[i*n : (i+1)*n]
		for j := 0; j < n2; j++ {
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
		for j := n2; j < n; j++ {
			row[j] = infCost
		}
		row[n2+i] = 1
		if structural {
			row[n2+i] += float64(a.Degree(i)) / 2
		}
	}
	for i := 0; i < n2; i++ {
		row := c.cost[(n1+i)*n : (n1+i+1)*n]
		for j := 0; j < n2; j++ {
			row[j] = infCost
		}
		row[i] = 1
		if structural {
			row[i] += float64(b.Degree(i)) / 2
		}
		clear(row[n2:]) // bottom-right block: padding against padding
	}
	return n
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
