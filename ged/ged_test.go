package ged

import (
	"math"
	"testing"

	"github.com/lansearch/lan/graph"
)

func path(labels ...string) *graph.Graph {
	g := graph.New(-1)
	for _, l := range labels {
		g.AddNode(l)
	}
	for i := 1; i < len(labels); i++ {
		g.MustAddEdge(i-1, i)
	}
	return g
}

func cycle(labels ...string) *graph.Graph {
	g := path(labels...)
	if len(labels) > 2 {
		g.MustAddEdge(0, len(labels)-1)
	}
	return g
}

func exact(t *testing.T, g, h *graph.Graph) float64 {
	t.Helper()
	d, ok := Exact(g, h, 0)
	if !ok {
		t.Fatalf("unbounded exact GED did not finish")
	}
	return d
}

func TestExactIdentity(t *testing.T) {
	g := cycle("A", "B", "C", "D")
	if d := exact(t, g, g); d != 0 {
		t.Fatalf("d(G,G) = %v; want 0", d)
	}
}

func TestExactKnownSmallCases(t *testing.T) {
	cases := []struct {
		name string
		g, h *graph.Graph
		want float64
	}{
		{"relabel one node", path("A", "B", "C"), path("A", "B", "D"), 1},
		{"delete leaf node+edge", path("A", "B", "C"), path("A", "B"), 2},
		{"add cycle edge", path("A", "B", "C"), cycle("A", "B", "C"), 1},
		{"empty vs single node", graph.New(-1), path("A"), 1},
		{"both empty", graph.New(-1), graph.New(-1), 0},
		{"disjoint labels same shape", path("A", "A"), path("B", "B"), 2},
		{"path3 vs star3 relabeled", path("A", "B", "A"), cycle("A", "B", "A"), 1},
	}
	for _, c := range cases {
		if d := exact(t, c.g, c.h); d != c.want {
			t.Errorf("%s: d = %v; want %v", c.name, d, c.want)
		}
	}
}

func TestExactPaperExampleFig2(t *testing.T) {
	// Fig. 2: G has nodes v0(A), v1(B), v2(B), v3(B)... the paper states
	// d(G,Q) = 5 for its figure; we reconstruct a pair with the same
	// distance: G = star of A with three B leaves + triangle edges, Q =
	// path A-B with extra A. Rather than guess the exact figure topology,
	// assert symmetry and a hand-computed value on a fixed pair.
	g := graph.New(-1)
	a := g.AddNode("A")
	b1 := g.AddNode("B")
	b2 := g.AddNode("B")
	b3 := g.AddNode("B")
	g.MustAddEdge(a, b1)
	g.MustAddEdge(a, b2)
	g.MustAddEdge(a, b3)
	g.MustAddEdge(b1, b2)

	q := graph.New(-1)
	qa := q.AddNode("A")
	qb := q.AddNode("B")
	qa2 := q.AddNode("A")
	q.MustAddEdge(qa, qb)
	q.MustAddEdge(qb, qa2)

	d := exact(t, g, q)
	// Verify against an independently computed value: delete one B node
	// (+its 2 edges in the worst case)... we just require consistency with
	// brute-force mappingCost minimum.
	want := bruteForceGED(g, q)
	if d != want {
		t.Fatalf("A* = %v; brute force = %v", d, want)
	}
}

// bruteForceGED enumerates all injections of g's nodes into h plus
// deletions (exponential; n <= ~6).
func bruteForceGED(g, h *graph.Graph) float64 {
	phi := make([]int, g.N())
	used := make([]bool, h.N())
	best := math.Inf(1)
	var rec func(u int)
	rec = func(u int) {
		if u == g.N() {
			if c := mappingCost(g, h, phi); c < best {
				best = c
			}
			return
		}
		phi[u] = unmapped
		rec(u + 1)
		for w := 0; w < h.N(); w++ {
			if !used[w] {
				used[w] = true
				phi[u] = w
				rec(u + 1)
				used[w] = false
			}
		}
	}
	rec(0)
	return best
}

func TestExactMatchesBruteForceOnRandomPairs(t *testing.T) {
	gen := graph.NewGenerator(7)
	labels := []string{"A", "B", "C"}
	for trial := 0; trial < 30; trial++ {
		g := gen.RandomConnected(2+trial%4, 6, labels, 0.3)
		h := gen.RandomConnected(2+(trial+2)%4, 6, labels, 0.3)
		d := exact(t, g, h)
		want := bruteForceGED(g, h)
		if d != want {
			t.Fatalf("trial %d: A* = %v; brute force = %v", trial, d, want)
		}
	}
}

func TestExactSymmetric(t *testing.T) {
	gen := graph.NewGenerator(8)
	labels := []string{"A", "B", "C", "D"}
	for trial := 0; trial < 20; trial++ {
		g := gen.MoleculeLike(3+trial%5, 1, labels, 0.3)
		h := gen.MoleculeLike(3+(trial+1)%5, 1, labels, 0.3)
		if d1, d2 := exact(t, g, h), exact(t, h, g); d1 != d2 {
			t.Fatalf("trial %d: d(G,H)=%v != d(H,G)=%v", trial, d1, d2)
		}
	}
}

func TestExactTriangleInequality(t *testing.T) {
	gen := graph.NewGenerator(9)
	labels := []string{"A", "B"}
	for trial := 0; trial < 15; trial++ {
		a := gen.RandomConnected(3, 4, labels, 0.2)
		b := gen.RandomConnected(4, 5, labels, 0.2)
		c := gen.RandomConnected(3, 3, labels, 0.2)
		dab, dbc, dac := exact(t, a, b), exact(t, b, c), exact(t, a, c)
		if dac > dab+dbc+1e-9 {
			t.Fatalf("triangle violated: d(a,c)=%v > %v+%v", dac, dab, dbc)
		}
	}
}

func TestMutationBoundsExact(t *testing.T) {
	// d(G, Mutate(G, k)) <= ~2k (node insert/delete touches an edge too).
	gen := graph.NewGenerator(10)
	labels := []string{"A", "B", "C"}
	base := gen.MoleculeLike(7, 1, labels, 0.3)
	for k := 1; k <= 3; k++ {
		m := gen.Mutate(base, k, labels)
		if m.N() > 9 { // keep exact GED tractable
			continue
		}
		d := exact(t, base, m)
		if d > float64(2*k) {
			t.Fatalf("d(G, mutate(G,%d)) = %v > %d", k, d, 2*k)
		}
	}
}

func TestUpperBoundsDominateExact(t *testing.T) {
	gen := graph.NewGenerator(11)
	labels := []string{"A", "B", "C"}
	for trial := 0; trial < 25; trial++ {
		g := gen.RandomConnected(3+trial%4, 7, labels, 0.3)
		h := gen.RandomConnected(3+(trial+1)%4, 7, labels, 0.3)
		d := exact(t, g, h)
		for name, ub := range map[string]float64{
			"vj":        VJ(g, h),
			"hungarian": Hungarian(g, h),
			"beam":      Beam(g, h, 8),
		} {
			if ub < d-1e-9 {
				t.Fatalf("trial %d: %s = %v < exact %v", trial, name, ub, d)
			}
		}
	}
}

func TestBeamWiderIsNoWorse(t *testing.T) {
	gen := graph.NewGenerator(12)
	labels := []string{"A", "B", "C", "D"}
	for trial := 0; trial < 15; trial++ {
		g := gen.MoleculeLike(8, 1, labels, 0.3)
		h := gen.Mutate(g, 3, labels)
		if Beam(g, h, 32) > Beam(g, h, 1)+1e-9 {
			t.Fatalf("trial %d: wider beam got worse", trial)
		}
	}
}

func TestBeamLargeWidthMatchesExactOnSmall(t *testing.T) {
	gen := graph.NewGenerator(13)
	labels := []string{"A", "B"}
	for trial := 0; trial < 10; trial++ {
		g := gen.RandomConnected(4, 5, labels, 0.2)
		h := gen.RandomConnected(4, 5, labels, 0.2)
		d := exact(t, g, h)
		// With an exhaustive beam the search is complete.
		if b := Beam(g, h, 100000); b != d {
			t.Fatalf("trial %d: exhaustive beam %v != exact %v", trial, b, d)
		}
	}
}

func TestExactBudgetFallbackIsUpperBound(t *testing.T) {
	gen := graph.NewGenerator(14)
	labels := []string{"A", "B", "C", "D", "E"}
	g := gen.RandomConnected(14, 20, labels, 0.2)
	h := gen.RandomConnected(15, 22, labels, 0.2)
	d, ok := Exact(g, h, 10) // tiny budget: must not finish
	if ok {
		t.Skip("exact finished within tiny budget")
	}
	lb := labelLowerBound(g, h)
	if d < lb {
		t.Fatalf("fallback %v below lower bound %v", d, lb)
	}
}

func TestLabelLowerBoundAdmissible(t *testing.T) {
	gen := graph.NewGenerator(15)
	labels := []string{"A", "B", "C"}
	for trial := 0; trial < 25; trial++ {
		g := gen.RandomConnected(2+trial%4, 6, labels, 0.3)
		h := gen.RandomConnected(2+(trial+1)%4, 6, labels, 0.3)
		d := exact(t, g, h)
		if lb := labelLowerBound(g, h); lb > d+1e-9 {
			t.Fatalf("trial %d: lower bound %v > exact %v", trial, lb, d)
		}
	}
}

func TestEnsembleProtocol(t *testing.T) {
	gen := graph.NewGenerator(16)
	labels := []string{"A", "B", "C"}
	e := Ensemble{ExactBudget: 100000, BeamWidth: 8}
	for trial := 0; trial < 10; trial++ {
		g := gen.MoleculeLike(5, 1, labels, 0.3)
		h := gen.Mutate(g, 2, labels)
		d := e.Distance(g, h)
		want := exact(t, g, h)
		if d != want {
			t.Fatalf("trial %d: ensemble %v != exact %v (budget should suffice)", trial, d, want)
		}
	}
	// Zero budget: still returns a finite upper bound.
	e0 := Ensemble{}
	g := gen.MoleculeLike(10, 1, labels, 0.3)
	h := gen.MoleculeLike(12, 1, labels, 0.3)
	if d := e0.Distance(g, h); math.IsInf(d, 0) || d < 0 {
		t.Fatalf("no-exact ensemble distance = %v", d)
	}
}

func TestMappingCostIdentityMapping(t *testing.T) {
	g := cycle("A", "B", "C", "D")
	phi := []int{0, 1, 2, 3}
	if c := mappingCost(g, g, phi); c != 0 {
		t.Fatalf("identity mapping cost = %v", c)
	}
	// Mapping everything to deletion costs n + m (delete all) + n' + m'
	// (insert all of h).
	all := []int{unmapped, unmapped, unmapped, unmapped}
	want := float64(g.N() + g.M() + g.N() + g.M())
	if c := mappingCost(g, g, all); c != want {
		t.Fatalf("all-delete mapping cost = %v; want %v", c, want)
	}
}

// TestExactMappingCostConsistency: the optimal mapping A* leaves behind
// induces exactly the distance it returns, and Exact returns that
// distance too.
func TestExactMappingCostConsistency(t *testing.T) {
	gen := graph.NewGenerator(31)
	labels := []string{"A", "B", "C"}
	for trial := 0; trial < 20; trial++ {
		g := gen.RandomConnected(2+trial%4, 6, labels, 0.3)
		h := gen.RandomConnected(2+(trial+1)%5, 7, labels, 0.3)
		d, phi, _, ok := arenaAStar(g, h, 0)
		if !ok {
			t.Fatalf("trial %d: unbounded search failed", trial)
		}
		if len(phi) != g.N() {
			t.Fatalf("trial %d: mapping length %d; want %d", trial, len(phi), g.N())
		}
		if got := mappingCost(g, h, phi); got != d {
			t.Fatalf("trial %d: mapping cost %v != exact %v", trial, got, d)
		}
		if want := exact(t, g, h); d != want {
			t.Fatalf("trial %d: A* mapping distance %v != Exact %v", trial, d, want)
		}
	}
}

func TestExactMappingSwappedOrientation(t *testing.T) {
	// g bigger than h triggers the internal swap; the mapping must still
	// be from g's nodes.
	g := path("A", "B", "C", "D", "E")
	h := path("A", "B")
	d, phi, _, ok := arenaAStar(g, h, 0)
	if !ok || len(phi) != 5 {
		t.Fatalf("phi = %v ok = %v", phi, ok)
	}
	if got := mappingCost(g, h, phi); got != d {
		t.Fatalf("mapping cost %v != %v", got, d)
	}
}

func TestLowerBoundPublicAPI(t *testing.T) {
	g := path("A", "B", "C")
	h := path("A", "B", "D")
	lb := LowerBound(g, h)
	d := exact(t, g, h)
	if lb > d {
		t.Fatalf("LowerBound %v > exact %v", lb, d)
	}
	if lb <= 0 {
		t.Fatalf("expected positive bound, got %v", lb)
	}
}
