package ged

import (
	"container/heap"
	"math"

	"github.com/lansearch/lan/graph"
)

// This file is the oracle: the GED kernels as they stood before the
// arena port — map-based A* on container/heap, [][]float64 assignment
// solvers, the per-call cost-matrix builders and the edge-list
// mappingCost — moved here verbatim (names prefixed ref, A* additionally
// reporting its expansion count). Nothing outside the tests links it; the
// identity tests and the fuzzer hold the arena kernels to it bit for bit.

// refHungarian, refVJ and refEnsemble are the public entry points as they
// composed the reference kernels.
func refHungarian(g, h *graph.Graph) float64 {
	assign := refSolveHungarian(refRiesenBunkeCosts(g, h))
	return refMappingCost(g, h, refExtractMapping(assign, g.N(), h.N()))
}

func refVJ(g, h *graph.Graph) float64 {
	assign := refSolveJV(refLabelCosts(g, h))
	return refMappingCost(g, h, refExtractMapping(assign, g.N(), h.N()))
}

func refEnsemble(e Ensemble, g, h *graph.Graph) float64 {
	if e.ExactBudget > 0 {
		if d, _, _, ok := refAStar(g, h, e.ExactBudget); ok {
			return d
		}
	}
	w := e.BeamWidth
	if w <= 0 {
		w = 16
	}
	d := refVJ(g, h)
	if d2 := refHungarian(g, h); d2 < d {
		d = d2
	}
	if d3 := referenceBeam(g, h, w); d3 < d {
		d = d3
	}
	return d
}

// searchCtx holds the static data shared by all A*/beam states for one
// (g, h) pair: the node processing order and the suffix statistics used by
// the admissible heuristic.
type searchCtx struct {
	g, h  *graph.Graph
	order []int // g nodes in processing order (degree descending)

	// suffixHist[i] is the label histogram of g nodes order[i:].
	suffixHist []map[string]int
	// suffixEdges[i] is the number of g edges with both endpoints at
	// order positions >= i.
	suffixEdges []int
	// pos[u] is the order position of g node u.
	pos []int

	hHist map[string]int
}

func isUsed(used []uint64, w int) bool { return used[w/64]&(1<<(w%64)) != 0 }

type state struct {
	depth int     // number of g nodes processed
	cost  float64 // g-value: edit cost accrued so far
	f     float64 // cost + heuristic
	phi   []int   // phi[u] for g node u: h node, unmapped, or notProcessed
	used  []uint64
}

func newSearchCtx(g, h *graph.Graph) *searchCtx {
	c := &searchCtx{g: g, h: h, hHist: h.LabelHistogram()}
	n := g.N()
	c.order = make([]int, n)
	for i := range c.order {
		c.order[i] = i
	}
	// Degree-descending order tightens the heuristic early.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && g.Degree(c.order[j]) > g.Degree(c.order[j-1]); j-- {
			c.order[j], c.order[j-1] = c.order[j-1], c.order[j]
		}
	}
	c.pos = make([]int, n)
	for i, u := range c.order {
		c.pos[u] = i
	}
	c.suffixHist = make([]map[string]int, n+1)
	c.suffixHist[n] = map[string]int{}
	for i := n - 1; i >= 0; i-- {
		m := make(map[string]int, len(c.suffixHist[i+1])+1)
		for k, v := range c.suffixHist[i+1] {
			m[k] = v
		}
		m[g.Label(c.order[i])]++
		c.suffixHist[i] = m
	}
	c.suffixEdges = make([]int, n+1)
	for i := n - 1; i >= 0; i-- {
		c.suffixEdges[i] = c.suffixEdges[i+1]
		u := c.order[i]
		for _, v := range g.Neighbors(u) {
			if c.pos[v] > i {
				c.suffixEdges[i]++
			}
		}
	}
	return c
}

func (c *searchCtx) initial() *state {
	n := c.g.N()
	s := &state{
		phi:  make([]int, n),
		used: make([]uint64, (c.h.N()+63)/64),
	}
	for i := range s.phi {
		s.phi[i] = notProcessed
	}
	if n == 0 {
		s.cost = c.completionCost(s)
		s.f = s.cost
	} else {
		s.f = s.cost + c.heuristic(s)
	}
	return s
}

// heuristic is the admissible lower bound on the remaining edit cost: the
// label-multiset bound between unprocessed g nodes and unused h nodes plus
// the gap between remaining-remaining edge counts on both sides.
func (c *searchCtx) heuristic(s *state) float64 {
	remG := c.g.N() - s.depth
	// Unused h labels = full histogram minus used ones.
	usedHist := make(map[string]int)
	usedCount := 0
	for u := 0; u < c.g.N(); u++ {
		if w := s.phi[u]; w >= 0 {
			usedHist[c.h.Label(w)]++
			usedCount++
		}
	}
	remHHist := make(map[string]int, len(c.hHist))
	for l, n := range c.hHist {
		if r := n - usedHist[l]; r > 0 {
			remHHist[l] = r
		}
	}
	lb := multisetEditLB(c.suffixHist[s.depth], remHHist, remG, c.h.N()-usedCount)

	eg := c.suffixEdges[s.depth]
	eh := 0
	for _, e := range c.h.Edges() {
		if !isUsed(s.used, e[0]) && !isUsed(s.used, e[1]) {
			eh++
		}
	}
	if eg > eh {
		lb += float64(eg - eh)
	} else {
		lb += float64(eh - eg)
	}
	return lb
}

// assignCost returns the incremental edit cost of mapping g node u to h
// node w (w == unmapped for deletion), given the partial mapping in s.
func (c *searchCtx) assignCost(s *state, u, w int) float64 {
	if w == unmapped {
		cost := 1.0 // node deletion
		for _, j := range c.g.Neighbors(u) {
			if s.phi[j] != notProcessed {
				cost++ // incident edge to a processed node is deleted
			}
		}
		return cost
	}
	cost := 0.0
	if c.g.Label(u) != c.h.Label(w) {
		cost++ // relabel
	}
	matched := 0
	for _, j := range c.g.Neighbors(u) {
		switch pj := s.phi[j]; {
		case pj == notProcessed:
			// decided later
		case pj == unmapped:
			cost++ // g edge to a deleted node: deletion
		case c.h.HasEdge(w, pj):
			matched++
		default:
			cost++ // g edge with no h counterpart: deletion
		}
	}
	// h edges from w to already-used nodes that are not matched by a g
	// edge must be inserted.
	usedNbr := 0
	for _, x := range c.h.Neighbors(w) {
		if isUsed(s.used, x) {
			usedNbr++
		}
	}
	cost += float64(usedNbr - matched)
	return cost
}

// child returns the successor of s that maps g node u (= order[s.depth])
// to w (or deletes it when w == unmapped).
func (c *searchCtx) child(s *state, u, w int) *state {
	ns := &state{
		depth: s.depth + 1,
		cost:  s.cost + c.assignCost(s, u, w),
		phi:   append([]int(nil), s.phi...),
		used:  append([]uint64(nil), s.used...),
	}
	ns.phi[u] = w
	if w >= 0 {
		ns.used[w/64] |= 1 << (w % 64)
	}
	if ns.depth == c.g.N() {
		// Terminal: fold in the forced insertions so that f is exact and
		// popping the first terminal state is optimal.
		ns.cost += c.completionCost(ns)
		ns.f = ns.cost
	} else {
		ns.f = ns.cost + c.heuristic(ns)
	}
	return ns
}

// completionCost returns the cost of finishing a state where every g node
// has been processed: insert each unused h node and every h edge with at
// least one unused endpoint.
func (c *searchCtx) completionCost(s *state) float64 {
	cost := 0.0
	for w := 0; w < c.h.N(); w++ {
		if !isUsed(s.used, w) {
			cost++
		}
	}
	for _, e := range c.h.Edges() {
		if !isUsed(s.used, e[0]) || !isUsed(s.used, e[1]) {
			cost++
		}
	}
	return cost
}

type stateHeap []*state

func (h stateHeap) Len() int            { return len(h) }
func (h stateHeap) Less(i, j int) bool  { return h[i].f < h[j].f }
func (h stateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *stateHeap) Push(x interface{}) { *h = append(*h, x.(*state)) }
func (h *stateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// refAStar runs exact GED A*, returning the optimal mapping from
// g's nodes into h's. maxExpansions <= 0 means unbounded.
func refAStar(g, h *graph.Graph, maxExpansions int) (d float64, phi []int, expansions int, ok bool) {
	swapped := g.N() > h.N()
	if swapped {
		g, h = h, g // unit costs make GED symmetric; branch over the bigger side
	}
	c := newSearchCtx(g, h)
	pq := &stateHeap{c.initial()}
	heap.Init(pq)
	for pq.Len() > 0 {
		s := heap.Pop(pq).(*state)
		if s.depth == g.N() {
			// Completion cost already folded in by child().
			phi = append([]int(nil), s.phi...)
			if swapped {
				phi = invertMapping(phi, h.N())
			}
			return s.cost, phi, expansions, true
		}
		expansions++
		if maxExpansions > 0 && expansions > maxExpansions {
			// Budget exhausted: return a cheap valid upper bound.
			return refHungarian(g, h), nil, expansions, false
		}
		u := c.order[s.depth]
		for w := 0; w < h.N(); w++ {
			if !isUsed(s.used, w) {
				heap.Push(pq, c.child(s, u, w))
			}
		}
		heap.Push(pq, c.child(s, u, unmapped))
	}
	return 0, nil, expansions, false // unreachable for well-formed inputs
}

// invertMapping converts a mapping smaller->bigger into bigger->smaller:
// nodes of the bigger graph that are not images become deletions.
func invertMapping(phi []int, n int) []int {
	inv := make([]int, n)
	for i := range inv {
		inv[i] = unmapped
	}
	for u, w := range phi {
		if w != unmapped {
			inv[w] = u
		}
	}
	return inv
}

// infCost marks an infeasible cell of the dense padded matrix.
const infCost = 1e9

// refSolveHungarian solves the square min-cost assignment problem with the
// O(n^3) potentials formulation of the Hungarian algorithm (Kuhn–Munkres).
// cost must be square; the result maps each row to its assigned column.
func refSolveHungarian(cost [][]float64) []int {
	n := len(cost)
	if n == 0 {
		return nil
	}
	// 1-indexed potentials formulation.
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1)   // p[j]: row matched to column j (0 = none)
	way := make([]int, n+1) // way[j]: previous column on the alternating path
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
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
	assign := make([]int, n)
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			assign[p[j]-1] = j - 1
		}
	}
	return assign
}

// refSolveJV solves the square min-cost assignment problem with the
// Jonker–Volgenant algorithm: column reduction, augmenting row reduction,
// then shortest augmenting paths for the remaining free rows.
func refSolveJV(cost [][]float64) []int {
	n := len(cost)
	if n == 0 {
		return nil
	}
	rowsol := make([]int, n) // rowsol[i]: column assigned to row i
	colsol := make([]int, n) // colsol[j]: row assigned to column j
	v := make([]float64, n)  // column potentials
	for i := range rowsol {
		rowsol[i] = -1
		colsol[i] = -1
	}

	// Column reduction: assign each column to its minimal row when free.
	for j := n - 1; j >= 0; j-- {
		imin := 0
		for i := 1; i < n; i++ {
			if cost[i][j] < cost[imin][j] {
				imin = i
			}
		}
		v[j] = cost[imin][j]
		if rowsol[imin] == -1 {
			rowsol[imin] = j
			colsol[j] = imin
		}
	}

	// Augmenting row reduction (two passes) for unassigned rows, following
	// the original LAP formulation: take the best column, adjusting its
	// potential by the gap to the second-best; a bumped row is retried
	// immediately when the potential strictly decreased, otherwise it is
	// deferred to the next pass.
	free := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if rowsol[i] == -1 {
			free = append(free, i)
		}
	}
	// retryBudget caps the immediate-retry ping-pong, which can fail to
	// make progress under floating-point ties; rows beyond the budget are
	// deferred to the exact augmentation phase below, which is correct for
	// any dual-feasible warm start.
	retryBudget := 20*n + 100
	for pass := 0; pass < 2; pass++ {
		k := 0
		prevLen := len(free)
		next := make([]int, 0, prevLen)
		for k < prevLen {
			i := free[k]
			k++
			// Two smallest reduced costs in row i.
			j1, j2 := -1, -1
			u1, u2 := math.Inf(1), math.Inf(1)
			for j := 0; j < n; j++ {
				r := cost[i][j] - v[j]
				if r < u1 {
					u2, j2 = u1, j1
					u1, j1 = r, j
				} else if r < u2 {
					u2, j2 = r, j
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
					next = append(next, i0)
				}
			}
		}
		free = next
	}

	// Shortest augmenting path for each remaining free row (Dijkstra on
	// reduced costs).
	for _, f := range free {
		d := make([]float64, n)
		pred := make([]int, n)
		done := make([]bool, n)
		for j := 0; j < n; j++ {
			d[j] = cost[f][j] - v[j]
			pred[j] = f
		}
		endj := -1
		var mu float64
		for {
			// Pick the unscanned column with minimal d.
			jmin := -1
			for j := 0; j < n; j++ {
				if !done[j] && (jmin == -1 || d[j] < d[jmin]) {
					jmin = j
				}
			}
			done[jmin] = true
			mu = d[jmin]
			if colsol[jmin] == -1 {
				endj = jmin
				break
			}
			// Relax through the row currently owning jmin.
			i := colsol[jmin]
			for j := 0; j < n; j++ {
				if done[j] {
					continue
				}
				if nd := mu + cost[i][j] - v[j] - (cost[i][jmin] - v[jmin]); nd < d[j] {
					d[j] = nd
					pred[j] = i
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
	return rowsol
}

// refAssignmentCost sums the matrix cost of an assignment (for tests).
func refAssignmentCost(cost [][]float64, assign []int) float64 {
	total := 0.0
	for i, j := range assign {
		total += cost[i][j]
	}
	return total
}

// refRiesenBunkeCosts builds the Riesen–Bunke cost matrix: substitution cost
// is the label cost plus half the incident-edge count difference (each
// unmatched incident edge is shared by two nodes); deletions/insertions
// charge the node plus half its incident edges.
func refRiesenBunkeCosts(g, h *graph.Graph) [][]float64 {
	n1, n2 := g.N(), h.N()
	n := n1 + n2
	m := refNewSquare(n)
	for i := 0; i < n1; i++ {
		for j := 0; j < n2; j++ {
			c := 0.0
			if g.Label(i) != h.Label(j) {
				c = 1
			}
			dd := g.Degree(i) - h.Degree(j)
			if dd < 0 {
				dd = -dd
			}
			m[i][j] = c + float64(dd)/2
		}
	}
	for i := 0; i < n1; i++ {
		for j := 0; j < n1; j++ {
			if i == j {
				m[i][n2+j] = 1 + float64(g.Degree(i))/2
			} else {
				m[i][n2+j] = infCost
			}
		}
	}
	for i := 0; i < n2; i++ {
		for j := 0; j < n2; j++ {
			if i == j {
				m[n1+i][j] = 1 + float64(h.Degree(i))/2
			} else {
				m[n1+i][j] = infCost
			}
		}
	}
	// Bottom-right block stays zero.
	return m
}

// refLabelCosts builds the plain label-substitution cost matrix used by the
// VJ baseline (no structural term).
func refLabelCosts(g, h *graph.Graph) [][]float64 {
	n1, n2 := g.N(), h.N()
	n := n1 + n2
	m := refNewSquare(n)
	for i := 0; i < n1; i++ {
		for j := 0; j < n2; j++ {
			if g.Label(i) != h.Label(j) {
				m[i][j] = 1
			}
		}
	}
	for i := 0; i < n1; i++ {
		for j := 0; j < n1; j++ {
			if i == j {
				m[i][n2+j] = 1
			} else {
				m[i][n2+j] = infCost
			}
		}
	}
	for i := 0; i < n2; i++ {
		for j := 0; j < n2; j++ {
			if i == j {
				m[n1+i][j] = 1
			} else {
				m[n1+i][j] = infCost
			}
		}
	}
	return m
}

func refNewSquare(n int) [][]float64 {
	m := make([][]float64, n)
	backing := make([]float64, n*n)
	for i := range m {
		m[i] = backing[i*n : (i+1)*n]
	}
	return m
}

// refExtractMapping converts an assignment over the padded square matrix into
// a node mapping phi for g: rows < n1 assigned to columns < n2 are
// substitutions; rows assigned to padding columns are deletions.
func refExtractMapping(assign []int, n1, n2 int) []int {
	phi := make([]int, n1)
	for i := 0; i < n1; i++ {
		if assign[i] < n2 {
			phi[i] = assign[i]
		} else {
			phi[i] = unmapped
		}
	}
	return phi
}

// refMappingCost returns the exact edit cost induced by a full node mapping
// phi: phi[u] is the node of h that u in g maps to, or unmapped for a node
// deletion. Nodes of h that are not images are inserted. Edge edits are
// derived from the mapping: an edge of g survives iff both endpoints map to
// nodes of h joined by an edge; every other g edge is deleted and every h
// edge not covered this way is inserted. The result is an upper bound of
// the exact GED for any mapping and equals the GED for an optimal mapping.
func refMappingCost(g, h *graph.Graph, phi []int) float64 {
	cost := 0.0
	used := make([]bool, h.N())
	for u := 0; u < g.N(); u++ {
		w := phi[u]
		if w == unmapped {
			cost++ // node deletion
			continue
		}
		used[w] = true
		if g.Label(u) != h.Label(w) {
			cost++ // relabel
		}
	}
	for w := 0; w < h.N(); w++ {
		if !used[w] {
			cost++ // node insertion
		}
	}
	// Edge deletions: g edges that do not survive.
	matched := 0
	for _, e := range g.Edges() {
		a, b := phi[e[0]], phi[e[1]]
		if a != unmapped && b != unmapped && h.HasEdge(a, b) {
			matched++
		} else {
			cost++ // edge deletion
		}
	}
	// Edge insertions: h edges not covered by surviving g edges.
	cost += float64(h.M() - matched)
	return cost
}

// labelLowerBound is LowerBound as it stood before it ran on the arena:
// an admissible GED lower bound from the node-label multisets, counted in
// maps, and the edge counts: relabeling can fix at most the overlapping
// labels; size differences force insertions/deletions; the edge-count gap
// forces at least that many edge edits.
func labelLowerBound(g, h *graph.Graph) float64 {
	lb := multisetEditLB(g.LabelHistogram(), h.LabelHistogram(), g.N(), h.N())
	eg, eh := g.M(), h.M()
	if eg > eh {
		lb += float64(eg - eh)
	} else {
		lb += float64(eh - eg)
	}
	return lb
}

// multisetEditLB lower-bounds node edit cost between two label multisets of
// sizes n1 and n2: the larger side must delete/insert |n1-n2| nodes and the
// remaining non-overlapping labels must be relabeled.
func multisetEditLB(h1, h2 map[string]int, n1, n2 int) float64 {
	common := 0
	for l, c1 := range h1 {
		if c2 := h2[l]; c2 < c1 {
			common += c2
		} else {
			common += c1
		}
	}
	small := n1
	if n2 < n1 {
		small = n2
	}
	big := n1 + n2 - small
	// |n1-n2| insertions/deletions plus relabels for the unmatched part of
	// the smaller side.
	return float64(big-small) + float64(small-minInt(common, small))
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
