package ged

import (
	"math"
	"sort"
	"testing"

	"github.com/lansearch/lan/graph"
)

// referenceBeam is the pre-refactor beam kernel (allocating searchCtx
// states, full per-depth sort) with its one latent bug fixed: the old
// sort.Slice comparator ordered by f alone, leaving tie order to sort
// internals; here ties keep state creation order (sort.SliceStable), which
// is the deterministic contract the arena kernel implements. It exists
// only as the equivalence/allocation baseline for the tests below.
func referenceBeam(g, h *graph.Graph, w int) float64 {
	if w <= 0 {
		w = 8
	}
	if g.N() > h.N() {
		g, h = h, g
	}
	c := newSearchCtx(g, h)
	frontier := []*state{c.initial()}
	if g.N() == 0 {
		return frontier[0].cost
	}
	for depth := 0; depth < g.N(); depth++ {
		u := c.order[depth]
		var next []*state
		for _, s := range frontier {
			for x := 0; x < h.N(); x++ {
				if !isUsed(s.used, x) {
					next = append(next, c.child(s, u, x))
				}
			}
			next = append(next, c.child(s, u, unmapped))
		}
		sort.SliceStable(next, func(i, j int) bool { return next[i].f < next[j].f })
		if len(next) > w {
			next = next[:w]
		}
		frontier = next
	}
	best := frontier[0].cost
	for _, s := range frontier[1:] {
		if s.cost < best {
			best = s.cost
		}
	}
	return best
}

// beamCorpus is the pair corpus the kernel equivalence sweep runs over:
// hand-built edge cases plus generated molecule-like and random-connected
// pairs across several seeds, including asymmetric sizes that exercise the
// internal swap.
func beamCorpus() [][2]*graph.Graph {
	var pairs [][2]*graph.Graph
	add := func(g, h *graph.Graph) { pairs = append(pairs, [2]*graph.Graph{g, h}) }

	add(graph.New(-1), graph.New(-1))
	add(graph.New(-1), path("A"))
	add(path("A"), graph.New(-1))
	add(path("A"), path("B"))
	add(path("A", "B", "C"), path("A", "B", "D"))
	add(path("A", "B", "C"), cycle("A", "B", "C"))
	add(cycle("A", "B", "C", "D"), cycle("A", "B", "C", "D"))
	add(path("A", "B", "C", "D", "E"), path("A", "B"))
	add(path("A", "A"), path("B", "B"))

	labels := []string{"A", "B", "C", "D"}
	for _, seed := range []int64{3, 19, 71} {
		gen := graph.NewGenerator(seed)
		for trial := 0; trial < 12; trial++ {
			g := gen.MoleculeLike(4+trial%6, 1, labels, 0.3)
			add(g, gen.Mutate(g, 1+trial%3, labels))
			add(gen.RandomConnected(2+trial%5, 8, labels, 0.3),
				gen.RandomConnected(2+(trial+2)%5, 8, labels, 0.3))
		}
	}
	return pairs
}

func TestBeamKernelMatchesReference(t *testing.T) {
	for _, corpus := range []struct {
		pairs  [][2]*graph.Graph
		widths []int
	}{
		{beamCorpus(), []int{1, 2, 3, 8, 32}},
		{twoWordPairs(), []int{1, 4, 8}},
	} {
		for i, pair := range corpus.pairs {
			g, h := pair[0], pair[1]
			for _, w := range corpus.widths {
				got := Beam(g, h, w)
				want := referenceBeam(g, h, w)
				if got != want {
					t.Fatalf("pair %d (|g|=%d |h|=%d) w=%d: arena kernel %v != reference %v",
						i, g.N(), h.N(), w, got, want)
				}
				// The reverse orientation exercises the internal swap branch;
				// it must agree with the reference in that same orientation
				// (beam search itself is only symmetric for unequal sizes).
				if rev, wantRev := Beam(h, g, w), referenceBeam(h, g, w); rev != wantRev {
					t.Fatalf("pair %d w=%d: Beam(h,g)=%v != reference %v", i, w, rev, wantRev)
				}
			}
		}
	}
}

// TestBeamKernelHugeWidth: the selection slots are sized by the children a
// depth has, never by the width, so a beam wider than any frontier — an
// exhaustive search — matches the reference and, on a warm arena,
// allocates nothing.
func TestBeamKernelHugeWidth(t *testing.T) {
	const w = math.MaxInt32
	for i, pair := range beamCorpus() {
		g, h := pair[0], pair[1]
		if g.N() > 6 || h.N() > 6 {
			continue // every partial mapping is a state: keep the reference quick
		}
		if got, want := Beam(g, h, w), referenceBeam(g, h, w); got != want {
			t.Fatalf("pair %d (|g|=%d |h|=%d): arena kernel %v != reference %v", i, g.N(), h.N(), got, want)
		}
	}
	g, h := cycle("A", "B", "C", "D"), cycle("A", "B", "C", "D")
	Beam(g, h, w) // warm the arena pool
	if allocs := testing.AllocsPerRun(20, func() { Beam(g, h, w) }); allocs != 0 {
		t.Fatalf("Beam(g, h, MaxInt32) allocates %.1f/op on a warm arena; want 0", allocs)
	}
}

func TestBeamKernelDeterministicAcrossRepeats(t *testing.T) {
	gen := graph.NewGenerator(23)
	labels := []string{"A", "B"}
	// Low label diversity maximizes f ties, the spot where the old kernel's
	// unstable sort could flip frontier contents between runs.
	g := gen.MoleculeLike(9, 1, labels, 0.4)
	h := gen.Mutate(g, 3, labels)
	first := Beam(g, h, 4)
	for i := 0; i < 20; i++ {
		if d := Beam(g, h, 4); d != first {
			t.Fatalf("repeat %d: %v != %v", i, d, first)
		}
	}
}

func TestBeamKernelAllocs(t *testing.T) {
	gen := graph.NewGenerator(41)
	labels := []string{"A", "B", "C"}
	g := gen.MoleculeLike(10, 1, labels, 0.3)
	h := gen.Mutate(g, 3, labels)
	Beam(g, h, 8) // warm the arena pool
	kernel := testing.AllocsPerRun(100, func() { Beam(g, h, 8) })
	ref := testing.AllocsPerRun(100, func() { referenceBeam(g, h, 8) })
	if kernel*10 > ref {
		t.Fatalf("arena kernel allocates %.1f/op vs reference %.1f/op; want >= 10x reduction", kernel, ref)
	}
}

func BenchmarkBeamKernel(b *testing.B) {
	gen := graph.NewGenerator(42)
	labels := []string{"A", "B", "C"}
	g := gen.MoleculeLike(12, 1, labels, 0.3)
	h := gen.Mutate(g, 4, labels)
	for _, w := range []int{2, 8} {
		b.Run(map[int]string{2: "w2", 8: "w8"}[w], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Beam(g, h, w)
			}
		})
	}
}

func BenchmarkBeamReference(b *testing.B) {
	gen := graph.NewGenerator(42)
	labels := []string{"A", "B", "C"}
	g := gen.MoleculeLike(12, 1, labels, 0.3)
	h := gen.Mutate(g, 4, labels)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		referenceBeam(g, h, 8)
	}
}
