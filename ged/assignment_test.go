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

// solveHungarian and solveJV run the arena's flat solvers on a square
// matrix given as rows.
func solveHungarian(m [][]float64) []int { return solveFlat(m, (*pairCtx).solveHungarian) }
func solveJV(m [][]float64) []int        { return solveFlat(m, (*pairCtx).solveJV) }

func solveFlat(m [][]float64, solve func(*pairCtx, int)) []int {
	n := len(m)
	c := &pairCtx{}
	for _, row := range m {
		c.cost = append(c.cost, row...)
	}
	solve(c, n)
	assign := make([]int, n)
	for i, j := range c.assign[:n] {
		assign[i] = int(j)
	}
	return assign
}

func randomCostMatrix(rng *rand.Rand, n int) [][]float64 {
	m := refNewSquare(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m[i][j] = math.Floor(rng.Float64()*100) / 10
		}
	}
	return m
}

func TestHungarianMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(7)
		m := randomCostMatrix(rng, n)
		got := refAssignmentCost(m, solveHungarian(m))
		want := bruteForceAssignment(m)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d (n=%d): hungarian cost %v; want %v", trial, n, got, want)
		}
	}
}

func TestJVMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(7)
		m := randomCostMatrix(rng, n)
		got := refAssignmentCost(m, solveJV(m))
		want := bruteForceAssignment(m)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d (n=%d): JV cost %v; want %v", trial, n, got, want)
		}
	}
}

func TestSolversAgreeOnLargerMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(30)
		m := randomCostMatrix(rng, n)
		h := refAssignmentCost(m, solveHungarian(m))
		jv := refAssignmentCost(m, solveJV(m))
		if math.Abs(h-jv) > 1e-6 {
			t.Fatalf("trial %d (n=%d): hungarian %v != JV %v", trial, n, h, jv)
		}
	}
}

func TestAssignmentIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		m := randomCostMatrix(rng, n)
		for name, solve := range map[string]func([][]float64) []int{
			"hungarian": solveHungarian,
			"jv":        solveJV,
		} {
			a := solve(m)
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
	if got := solveHungarian(nil); len(got) != 0 {
		t.Fatalf("hungarian(nil) = %v", got)
	}
	if got := solveJV(nil); len(got) != 0 {
		t.Fatalf("jv(nil) = %v", got)
	}
}

func TestAssignmentWithInfeasibleCells(t *testing.T) {
	// Diagonal forbidden: the optimum must avoid infCost cells.
	n := 5
	m := refNewSquare(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				m[i][j] = infCost
			} else {
				m[i][j] = float64(i + j)
			}
		}
	}
	for name, solve := range map[string]func([][]float64) []int{
		"hungarian": solveHungarian,
		"jv":        solveJV,
	} {
		a := solve(m)
		for i, j := range a {
			if i == j {
				t.Fatalf("%s picked an infeasible cell: %v", name, a)
			}
		}
	}
}
