package ged

import (
	"math"
	"math/rand"
	"testing"
)

// bruteForceAssignment finds the optimal assignment cost by enumerating all
// permutations (n <= 8).
func bruteForceAssignment(cost [][]float64) float64 {
	n := len(cost)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			total := 0.0
			for r, c := range perm {
				total += cost[r][c]
			}
			if total < best {
				best = total
			}
			return
		}
		for j := i; j < n; j++ {
			perm[i], perm[j] = perm[j], perm[i]
			rec(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	rec(0)
	return best
}

// instance is an assignment instance in the arena's compact form, not
// derived from a pair of graphs: sub is the n1 x n2 block, row-major.
type instance struct {
	n1, n2        int
	sub, del, ins []float64
}

// load puts the instance into a fresh arena.
func (in instance) load() *pairCtx {
	c := &pairCtx{}
	c.sizeCosts(in.n1, in.n2)
	copy(c.sub, in.sub)
	copy(c.del, in.del)
	copy(c.ins, in.ins)
	return c
}

// dense is the padded square matrix the reference solvers take.
func (in instance) dense() [][]float64 { return in.load().denseCosts() }

// denseCosts expands the arena's instance into the padded square matrix,
// infCost in every infeasible cell.
func (c *pairCtx) denseCosts() [][]float64 {
	n := c.n1 + c.n2
	m := refNewSquare(n)
	for i := range m {
		for j := range m[i] {
			switch {
			case i < c.n1 && j >= c.n2 && j-c.n2 != i, i >= c.n1 && j < c.n2 && i-c.n1 != j:
				m[i][j] = infCost
			default:
				m[i][j] = c.cell(i, j)
			}
		}
	}
	return m
}

// solveHungarian and solveJV run the arena's solvers on an instance.
func solveHungarian(in instance) []int { return solveOn(in, (*pairCtx).solveHungarian) }
func solveJV(in instance) []int        { return solveOn(in, (*pairCtx).solveJV) }

func solveOn(in instance, solve func(*pairCtx)) []int {
	c := in.load()
	solve(c)
	assign := make([]int, in.n1+in.n2)
	for i, j := range c.assign[:len(assign)] {
		assign[i] = int(j)
	}
	return assign
}

// randomInstance draws costs in tenths: the solvers' optimality does not
// rest on the half-integer cells their identity with the reference does.
func randomInstance(rng *rand.Rand, n1, n2 int) instance {
	tenths := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = math.Floor(rng.Float64()*100) / 10
		}
		return s
	}
	return instance{n1: n1, n2: n2, sub: tenths(n1 * n2), del: tenths(n1), ins: tenths(n2)}
}

func TestHungarianMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		in := randomInstance(rng, rng.Intn(5), rng.Intn(4))
		m := in.dense()
		got := refAssignmentCost(m, solveHungarian(in))
		want := bruteForceAssignment(m)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d (%dx%d): hungarian cost %v; want %v", trial, in.n1, in.n2, got, want)
		}
	}
}

func TestJVMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		in := randomInstance(rng, rng.Intn(5), rng.Intn(4))
		m := in.dense()
		got := refAssignmentCost(m, solveJV(in))
		want := bruteForceAssignment(m)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d (%dx%d): JV cost %v; want %v", trial, in.n1, in.n2, got, want)
		}
	}
}

func TestSolversAgreeOnLargerMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		in := randomInstance(rng, 5+rng.Intn(15), 5+rng.Intn(15))
		m := in.dense()
		h := refAssignmentCost(m, solveHungarian(in))
		jv := refAssignmentCost(m, solveJV(in))
		if math.Abs(h-jv) > 1e-6 {
			t.Fatalf("trial %d (%dx%d): hungarian %v != JV %v", trial, in.n1, in.n2, h, jv)
		}
	}
}

func TestAssignmentIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		in := randomInstance(rng, rng.Intn(11), rng.Intn(11))
		n := in.n1 + in.n2
		for name, solve := range map[string]func(instance) []int{
			"hungarian": solveHungarian,
			"jv":        solveJV,
		} {
			a := solve(in)
			seen := make([]bool, n)
			for _, j := range a {
				if j < 0 || j >= n || seen[j] {
					t.Fatalf("%s: not a permutation: %v", name, a)
				}
				seen[j] = true
			}
		}
	}
}

func TestAssignmentEmptyMatrix(t *testing.T) {
	if got := solveHungarian(instance{}); len(got) != 0 {
		t.Fatalf("hungarian of the empty instance = %v", got)
	}
	if got := solveJV(instance{}); len(got) != 0 {
		t.Fatalf("jv of the empty instance = %v", got)
	}
}

func TestAssignmentWithInfeasibleCells(t *testing.T) {
	// Substitutions dearer than a deletion plus an insertion push the
	// optimum onto the two diagonals, whose neighbours are all infeasible:
	// a solver must not pick one however the potentials stand.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		in := randomInstance(rng, 1+rng.Intn(8), 1+rng.Intn(8))
		for i := range in.sub {
			if rng.Intn(2) == 0 {
				in.sub[i] += 20
			}
		}
		m := in.dense()
		for name, solve := range map[string]func(instance) []int{
			"hungarian": solveHungarian,
			"jv":        solveJV,
		} {
			for i, j := range solve(in) {
				if m[i][j] >= infCost {
					t.Fatalf("%s picked the infeasible cell (%d,%d) of a %dx%d instance", name, i, j, in.n1, in.n2)
				}
			}
		}
	}
}
