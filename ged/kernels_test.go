package ged

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/lansearch/lan/graph"
)

// simulatorPairs draws pairs the way the dataset simulators plant them
// (internal/dataset imports this package, so the two families the
// benchmark runs on are rebuilt here from their Table I parameters):
// cluster seeds, their mutants, and pairs across clusters.
func simulatorPairs(seed int64, n int, newSeed func(*graph.Generator, *rand.Rand) *graph.Graph, labels []string, maxMut int) [][2]*graph.Graph {
	gen := graph.NewGenerator(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var pairs [][2]*graph.Graph
	prev := newSeed(gen, rng)
	for len(pairs) < n {
		s := newSeed(gen, rng)
		a := gen.Mutate(s, 1+rng.Intn(maxMut), labels)
		b := gen.Mutate(s, 1+rng.Intn(maxMut), labels)
		pairs = append(pairs, [2]*graph.Graph{s, a}, [2]*graph.Graph{a, b}, [2]*graph.Graph{prev, b})
		prev = s
	}
	return pairs
}

func simLabels(n int) []string {
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("L%02d", i)
	}
	return labels
}

// aidsPairs: molecule skeletons of 19-31 nodes over 51 skewed labels.
func aidsPairs(n int) [][2]*graph.Graph {
	labels := simLabels(51)
	return simulatorPairs(4201, n, func(gen *graph.Generator, rng *rand.Rand) *graph.Graph {
		return gen.MoleculeLike(19+rng.Intn(13), 2+rng.Intn(3), labels, 0.35)
	}, labels, 6)
}

// synPairs: connected random graphs of 7-12 nodes over 5 labels.
func synPairs(n int) [][2]*graph.Graph {
	labels := simLabels(5)
	return simulatorPairs(4204, n, func(gen *graph.Generator, rng *rand.Rand) *graph.Graph {
		return gen.RandomConnected(7+rng.Intn(6), 11+rng.Intn(9), labels, 0.1)
	}, labels, 4)
}

func kernelCorpus() [][2]*graph.Graph {
	pairs := beamCorpus()
	pairs = append(pairs, aidsPairs(12)...)
	return append(pairs, synPairs(30)...)
}

// bipartiteCorpus adds the sizes the kernel corpus does not reach (its
// largest square matrix has 60 columns): sides past 64 and past 128
// columns, where the solvers' level set spans two and three words, and a
// single node against many. The empty-side pairs come with beamCorpus.
func bipartiteCorpus() [][2]*graph.Graph {
	pairs := kernelCorpus()
	gen := graph.NewGenerator(4217)
	labels := simLabels(6)
	for _, n := range []int{33, 47, 70} {
		g := gen.MoleculeLike(n, 3, labels, 0.3)
		pairs = append(pairs,
			[2]*graph.Graph{g, gen.Mutate(g, 6, labels)},
			[2]*graph.Graph{g, gen.RandomConnected(n+9, 2*n, labels, 0.2)})
	}
	for _, k := range []int{1, 2, 9, 66} {
		pairs = append(pairs, [2]*graph.Graph{path("L01"), gen.RandomConnected(k, 2*k, labels, 0.2)})
	}
	return pairs
}

// twoWordPairs are bipartiteCorpus's pairs with a side past 64 nodes (the
// 70- and 79-node pairs, and one node against 66), where the search
// kernels' bitsets over h — adjacency rows, the used set, the images of a
// node's mapped neighbours — span two words.
func twoWordPairs() [][2]*graph.Graph {
	var pairs [][2]*graph.Graph
	for _, p := range bipartiteCorpus() {
		if max(p[0].N(), p[1].N()) > 64 {
			pairs = append(pairs, p)
		}
	}
	return pairs
}

// exactMapping returns the mapping astar left in slot A0 in the caller's
// orientation: when the pair was swapped, nodes of the bigger graph that
// are not images become deletions.
func (c *pairCtx) exactMapping() []int {
	small := c.phiA[:c.gN]
	if !c.swapped {
		phi := make([]int, c.gN)
		for u, w := range small {
			phi[u] = int(w)
		}
		return phi
	}
	phi := make([]int, c.hN)
	for i := range phi {
		phi[i] = unmapped
	}
	for u, w := range small {
		if w != unmapped {
			phi[w] = u
		}
	}
	return phi
}

// arenaAStar runs the arena kernel the way Exact does, additionally
// reporting the expansion count and the mapping.
func arenaAStar(g, h *graph.Graph, budget int) (d float64, phi []int, expansions int, ok bool) {
	c := acquire(g, h)
	c.prepSearch()
	d, expansions, ok = c.astar(budget)
	if ok {
		phi = c.exactMapping()
	}
	release(c)
	return d, phi, expansions, ok
}

func TestAStarKernelMatchesReference(t *testing.T) {
	for i, pair := range append(kernelCorpus(), twoWordPairs()...) {
		// Both argument orders, so the g.N() > h.N() swap is covered.
		for _, p := range [][2]*graph.Graph{pair, {pair[1], pair[0]}} {
			g, h := p[0], p[1]
			budgets := []int{1, 30, 150}
			if g.N() <= 9 && h.N() <= 9 {
				budgets = append(budgets, 0)
			}
			if max(g.N(), h.N()) > 64 {
				budgets = []int{1, 30}
			}
			for _, budget := range budgets {
				d, phi, exp, ok := arenaAStar(g, h, budget)
				wd, wphi, wexp, wok := refAStar(g, h, budget)
				if ok != wok || exp != wexp {
					t.Fatalf("pair %d (|g|=%d |h|=%d) budget %d: ok=%v after %d expansions; reference ok=%v after %d",
						i, g.N(), h.N(), budget, ok, exp, wok, wexp)
				}
				if ok && (d != wd || !slices.Equal(phi, wphi)) {
					t.Fatalf("pair %d budget %d: d=%v phi=%v; reference d=%v phi=%v", i, budget, d, phi, wd, wphi)
				}
				// The public entry points: Exact pays for the bound on
				// exhaustion exactly as the reference did.
				if pd, pok := Exact(g, h, budget); pok != wok || pd != wd {
					t.Fatalf("pair %d budget %d: Exact = %v, %v; reference %v, %v", i, budget, pd, pok, wd, wok)
				}
			}
		}
	}
}

func TestBipartiteKernelsMatchReference(t *testing.T) {
	for i, pair := range bipartiteCorpus() {
		for _, p := range [][2]*graph.Graph{pair, {pair[1], pair[0]}} {
			g, h := p[0], p[1]
			c := acquire(g, h)
			for _, k := range []struct {
				name       string
				structural bool
				solve      func(*pairCtx)
				costs      func(g, h *graph.Graph) [][]float64
				refSolve   func([][]float64) []int
			}{
				{"hungarian", true, (*pairCtx).solveHungarian, refRiesenBunkeCosts, refSolveHungarian},
				{"vj", false, (*pairCtx).solveJV, refLabelCosts, refSolveJV},
			} {
				c.fillCosts(k.structural)
				n := c.n1 + c.n2
				m := k.costs(g, h)
				if n != len(m) || !slices.Equal(slices.Concat(c.denseCosts()...), slices.Concat(m...)) {
					t.Fatalf("pair %d %s: cost matrix differs from the reference", i, k.name)
				}
				k.solve(c)
				want := k.refSolve(m)
				for r, col := range c.assign[:n] {
					if int(col) != want[r] {
						t.Fatalf("pair %d (|g|=%d |h|=%d) %s: assignment %v; reference %v",
							i, g.N(), h.N(), k.name, c.assign[:n], want)
					}
				}
				got := c.assignedCost()
				if w := refMappingCost(g, h, refExtractMapping(want, g.N(), h.N())); got != w {
					t.Fatalf("pair %d %s: induced cost %v; reference %v", i, k.name, got, w)
				}
			}
			release(c)
			if got, want := Hungarian(g, h), refHungarian(g, h); got != want {
				t.Fatalf("pair %d: Hungarian %v; reference %v", i, got, want)
			}
			if got, want := VJ(g, h), refVJ(g, h); got != want {
				t.Fatalf("pair %d: VJ %v; reference %v", i, got, want)
			}
		}
	}
}

// TestCostCellsAreHalfIntegers pins the premise the solvers' identity with
// the dense reference rests on (see fillCosts): every cell of both cost
// models is a small multiple of ½, so every sum and difference of cells
// and potentials is exact in a float64.
func TestCostCellsAreHalfIntegers(t *testing.T) {
	for i, pair := range bipartiteCorpus() {
		c := acquire(pair[0], pair[1])
		for _, structural := range []bool{false, true} {
			c.fillCosts(structural)
			if len(c.cost) != c.n1*c.n2+c.n1+c.n2 {
				t.Fatalf("pair %d: %d cells for a %dx%d instance", i, len(c.cost), c.n1, c.n2)
			}
			for k, v := range c.cost {
				if twice := 2 * v; twice != math.Trunc(twice) || twice < 0 || twice >= 1<<20 {
					t.Fatalf("pair %d structural=%v: cell %d is %v", i, structural, k, v)
				}
			}
		}
		release(c)
	}
}

func TestEnsembleMatchesReference(t *testing.T) {
	for _, e := range []Ensemble{{BeamWidth: 2}, {ExactBudget: 30, BeamWidth: 4}, {ExactBudget: 150}} {
		for i, pair := range kernelCorpus() {
			for _, p := range [][2]*graph.Graph{pair, {pair[1], pair[0]}} {
				if got, want := e.Distance(p[0], p[1]), refEnsemble(e, p[0], p[1]); got != want {
					t.Fatalf("%+v pair %d: %v; reference %v", e, i, got, want)
				}
			}
		}
	}
}

// TestEnsembleSolvesEachBoundOnce pins the fix of the double Hungarian: an
// exhausted A* used to compute the Hungarian bound, which the ensemble
// discarded before computing VJ, Hungarian (again) and beam.
func TestEnsembleSolvesEachBoundOnce(t *testing.T) {
	pair := aidsPairs(3)[2] // across clusters: no budget-30 search finishes
	e := Ensemble{ExactBudget: 30, BeamWidth: 4}
	c := acquire(pair[0], pair[1])
	_, exhausted0 := AStarStats()
	e.distanceOn(c)
	if _, exhausted := AStarStats(); exhausted != exhausted0+1 {
		t.Fatalf("A* finished within 30 expansions on a %d/%d-node pair; pick another", pair[0].N(), pair[1].N())
	}
	if c.solves != 2 {
		t.Fatalf("exhausted ensemble call solved %d assignment problems; want 2 (VJ, Hungarian)", c.solves)
	}
	release(c)

	g := path("A", "B", "C")
	c = acquire(g, cycle("A", "B", "C"))
	finished0, _ := AStarStats()
	e.distanceOn(c)
	if finished, _ := AStarStats(); finished != finished0+1 {
		t.Fatal("A* did not finish on a 3-node pair")
	}
	if c.solves != 0 {
		t.Fatalf("finished ensemble call solved %d assignment problems; want 0", c.solves)
	}
	release(c)
}

// TestEnsembleStatsNameTheMember: a fallback call is counted once, for the
// first member in protocol order whose bound is the minimum; a call whose
// A* finishes is counted for none.
func TestEnsembleStatsNameTheMember(t *testing.T) {
	e := Ensemble{ExactBudget: 30, BeamWidth: 4}
	var want [3]uint64
	stats := func() [3]uint64 {
		vj, hungarian, beam := EnsembleStats()
		return [3]uint64{vj, hungarian, beam}
	}
	before := stats()
	for _, p := range kernelCorpus() {
		g, h := p[0], p[1]
		e.Distance(g, h)
		if _, ok := Exact(g, h, e.ExactBudget); ok {
			continue
		}
		bounds := [3]float64{VJ(g, h), Hungarian(g, h), Beam(g, h, e.BeamWidth)}
		best := 0
		for m, d := range bounds {
			if d < bounds[best] {
				best = m
			}
		}
		want[best]++
	}
	after := stats()
	for m, name := range []string{"vj", "hungarian", "beam"} {
		if got := after[m] - before[m]; got != want[m] {
			t.Errorf("%s: counted best on %d calls; want %d (all members: %v)", name, got, want[m], want)
		}
	}
	if want[0] == 0 || want[1] == 0 || want[2] == 0 {
		t.Fatalf("the corpus does not make every member best once: %v", want)
	}
}

func TestEnsembleDeterministicUnderConcurrency(t *testing.T) {
	pairs := append(aidsPairs(6), synPairs(12)...)
	e := Ensemble{ExactBudget: 30, BeamWidth: 4}
	want := make([]float64, len(pairs))
	for i, p := range pairs {
		want[i] = refEnsemble(e, p[0], p[1])
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range pairs {
					i := (k + w*5) % len(pairs) // every goroutine in its own order
					if d := e.Distance(pairs[i][0], pairs[i][1]); d != want[i] {
						errs <- fmt.Errorf("goroutine %d pair %d: %v; want %v", w, i, d, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEnsembleAllocs: a whole ensemble call allocates nothing once the
// pooled arena has its working size — also right after garbage
// collections, which is when a query's GED calls run: the model code
// between them allocates, and an arena pool the collector empties (a
// sync.Pool) would regrow its arena several times per query.
func TestEnsembleAllocs(t *testing.T) {
	e := Ensemble{ExactBudget: 30, BeamWidth: 4}
	for i, p := range aidsPairs(4) {
		e.Distance(p[0], p[1]) // bring the pooled arena to working size
		runtime.GC()
		runtime.GC()
		if allocs := testing.AllocsPerRun(20, func() { e.Distance(p[0], p[1]) }); allocs != 0 {
			t.Fatalf("pair %d (|g|=%d |h|=%d): %.1f allocs/op in steady state; want 0", i, p[0].N(), p[1].N(), allocs)
		}
	}
}

// TestLowerBoundMatchesReference holds LowerBound, counted on the arena's
// interned labels, to the map-counted bound it replaced, on every pair of
// the bipartite corpus in both argument orders.
func TestLowerBoundMatchesReference(t *testing.T) {
	for i, pair := range bipartiteCorpus() {
		for _, p := range [][2]*graph.Graph{pair, {pair[1], pair[0]}} {
			if got, want := LowerBound(p[0], p[1]), labelLowerBound(p[0], p[1]); got != want {
				t.Fatalf("pair %d (|g|=%d |h|=%d): LowerBound %v; reference %v", i, p[0].N(), p[1].N(), got, want)
			}
		}
	}
}

// TestLowerBoundAllocs: LowerBound allocates nothing once the pooled arena
// has its working size, as TestEnsembleAllocs holds the ensemble to.
func TestLowerBoundAllocs(t *testing.T) {
	for i, p := range append(aidsPairs(4), synApartPairs(4)...) {
		LowerBound(p[0], p[1])
		runtime.GC()
		runtime.GC()
		if allocs := testing.AllocsPerRun(20, func() { LowerBound(p[0], p[1]) }); allocs != 0 {
			t.Fatalf("pair %d (|g|=%d |h|=%d): %.1f allocs/op in steady state; want 0", i, p[0].N(), p[1].N(), allocs)
		}
	}
}

// TestReusedArenaMatchesFresh runs both solvers on one arena over a
// shuffled mix of pair sizes — empty sides, sides past 64 columns, both
// argument orders — each solver after the other in either order, and
// holds every assignment to the one a fresh arena returns. What a solve
// keeps across its searches (the walk's zero cells, the potentials'
// epoch) must not reach the next solve, on any schedule.
func TestReusedArenaMatchesFresh(t *testing.T) {
	var pairs [][2]*graph.Graph
	for _, p := range append(bipartiteCorpus(), synApartPairs(12)...) {
		pairs = append(pairs, p, [2]*graph.Graph{p[1], p[0]})
	}
	solvers := []struct {
		name       string
		structural bool
		solve      func(*pairCtx)
	}{{"hungarian", true, (*pairCtx).solveHungarian}, {"vj", false, (*pairCtx).solveJV}}
	solveOn := func(c *pairCtx, k int) []int32 {
		c.fillCosts(solvers[k].structural)
		solvers[k].solve(c)
		return slices.Clone(c.assign[:c.n1+c.n2])
	}
	loadInto := func(c *pairCtx, g, h *graph.Graph) {
		if g.N() > h.N() {
			c.load(h, g)
			c.swapped = true
			return
		}
		c.load(g, h)
	}
	rng := rand.New(rand.NewSource(53))
	reused := &pairCtx{}
	for round := 0; round < 3; round++ {
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		for i, p := range pairs {
			loadInto(reused, p[0], p[1])
			first := rng.Intn(2)
			for _, k := range []int{first, 1 - first} {
				fresh := &pairCtx{}
				loadInto(fresh, p[0], p[1])
				if got, want := solveOn(reused, k), solveOn(fresh, k); !slices.Equal(got, want) {
					t.Fatalf("round %d pair %d (|g|=%d |h|=%d) %s: reused arena %v; fresh arena %v",
						round, i, p[0].N(), p[1].N(), solvers[k].name, got, want)
				}
			}
		}
	}
}

// pooledArenas returns the arenas idle in the pool.
func pooledArenas() []*pairCtx {
	arenaPool.mu.Lock()
	defer arenaPool.mu.Unlock()
	return slices.Clone(arenaPool.idle[:arenaPool.n])
}

// TestPoolIsBounded: an unbudgeted A* may grow an arena without bound, and
// release must leave such an arena to the collector; nor does the pool keep
// more than maxPooledArenas however many callers ran at once.
func TestPoolIsBounded(t *testing.T) {
	gen := graph.NewGenerator(4)
	labels := []string{"A", "B", "C"}
	g := gen.RandomConnected(12, 17, labels, 0.1)
	h := gen.RandomConnected(12, 18, labels, 0.1)
	c := acquire(g, h)
	c.prepSearch()
	if _, _, ok := c.astar(0); !ok {
		t.Fatal("unbudgeted A* did not finish")
	}
	if c.footprint() <= maxPooledArenaBytes {
		t.Skipf("arena only grew to %d bytes; the pair is too easy to exercise the cap", c.footprint())
	}
	release(c)
	if c.g != nil || c.h != nil {
		t.Fatal("release kept the graph pointers")
	}

	held := make([]*pairCtx, maxPooledArenas+3)
	for i := range held {
		held[i] = acquire(g, h)
	}
	for _, a := range held {
		release(a)
	}
	runtime.GC()
	runtime.GC()
	idle := pooledArenas()
	if len(idle) != maxPooledArenas {
		t.Fatalf("pool keeps %d arenas after %d were released; want %d", len(idle), len(held), maxPooledArenas)
	}
	for _, a := range idle {
		if a == c || a.footprint() > maxPooledArenaBytes {
			t.Fatalf("pool keeps an arena of %d bytes (cap %d)", a.footprint(), maxPooledArenaBytes)
		}
		if a.g != nil || a.h != nil {
			t.Fatal("pooled arena pins a graph")
		}
	}
}

// The benchmarks below come in pairs: the arena kernel and its reference
// twin on the same AIDS-like pairs, so `make bench` prints the kernel-level
// before/after.

func benchPairs(b *testing.B, f func(g, h *graph.Graph)) {
	pairs := aidsPairs(9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		f(p[0], p[1])
	}
}

func BenchmarkExactBudget30(b *testing.B) {
	benchPairs(b, func(g, h *graph.Graph) {
		c := acquire(g, h)
		c.prepSearch()
		c.astar(30) // the ensemble's entry: no bound on exhaustion
		release(c)
	})
}

func BenchmarkExactBudget30Reference(b *testing.B) {
	// The reference pays its Hungarian bound on exhaustion, as the old
	// ensemble did on every call.
	benchPairs(b, func(g, h *graph.Graph) { refAStar(g, h, 30) })
}

func BenchmarkEnsembleAIDS(b *testing.B) {
	e := Ensemble{ExactBudget: 30, BeamWidth: 4}
	benchPairs(b, func(g, h *graph.Graph) { e.Distance(g, h) })
}

func BenchmarkEnsembleAIDSReference(b *testing.B) {
	e := Ensemble{ExactBudget: 30, BeamWidth: 4}
	benchPairs(b, func(g, h *graph.Graph) { refEnsemble(e, g, h) })
}

func BenchmarkHungarianFlat(b *testing.B) {
	benchPairs(b, func(g, h *graph.Graph) { Hungarian(g, h) })
}

func BenchmarkHungarianReference(b *testing.B) {
	benchPairs(b, func(g, h *graph.Graph) { refHungarian(g, h) })
}

func BenchmarkVJFlat(b *testing.B) {
	benchPairs(b, func(g, h *graph.Graph) { VJ(g, h) })
}

func BenchmarkVJReference(b *testing.B) {
	benchPairs(b, func(g, h *graph.Graph) { refVJ(g, h) })
}

// apartPairs draws n pairs of independently generated graphs of one
// shape: what a build's candidate beams and a search's routing mostly pay
// for, where a graph and its own few-edit mutant (simulatorPairs) make the
// solvers' work look 3-4x cheaper. Benchmarks draw a few hundred, so that
// the branch predictor cannot learn the pairs, as it learns nine.
func apartPairs(seed int64, n int, newGraph func(*graph.Generator, *rand.Rand) *graph.Graph) [][2]*graph.Graph {
	gen := graph.NewGenerator(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	pairs := make([][2]*graph.Graph, n)
	for i := range pairs {
		pairs[i] = [2]*graph.Graph{newGraph(gen, rng), newGraph(gen, rng)}
	}
	return pairs
}

// aidsApartPairs and synApartPairs are apartPairs of aidsPairs' and
// synPairs' shapes.
func aidsApartPairs(n int) [][2]*graph.Graph {
	labels := simLabels(51)
	return apartPairs(4301, n, func(gen *graph.Generator, rng *rand.Rand) *graph.Graph {
		return gen.MoleculeLike(19+rng.Intn(13), 2+rng.Intn(3), labels, 0.35)
	})
}

func synApartPairs(n int) [][2]*graph.Graph {
	labels := simLabels(5)
	return apartPairs(4304, n, func(gen *graph.Generator, rng *rand.Rand) *graph.Graph {
		return gen.RandomConnected(7+rng.Intn(6), 11+rng.Intn(9), labels, 0.1)
	})
}

// BenchmarkEnsembleMembers splits an ensemble call that exhausts its A*
// budget into its stages, each timed alone, so the shares of a call are
// read where they are true (the benchmark's ged.astar_us_per_call times
// public Exact, which pays a Hungarian bound on exhaustion). load runs on
// one arena. The families are a graph against its mutants and across
// clusters (aids, syn: nine pairs each), whose members run on arenas
// loaded and prepared beforehand, one per pair, and leave them as they
// found them; and independently generated graphs of the same shapes
// (aids-apart, syn-apart: 200 and 500 pairs, too many to be learned),
// whose every call first loads and prepares its pair on one arena, as a
// goroutine's pooled arena is — hundreds of arenas kept loaded would all
// be cold — so their members include the load line's time and
// prepSearch's. The two assignment members also report, per solve, the
// full shortest-path searches they ran (searches/solve) and the columns
// they scanned, in searches and walks (pops/solve): counts that repeat
// run to run where the times do not. They run once per body of the row
// kernels (rows.go), vj/vector beside vj/go, so one run shows what the
// vector bodies take off; the counts are the same on both.
func BenchmarkEnsembleMembers(b *testing.B) {
	for _, family := range []struct {
		name   string
		pairs  [][2]*graph.Graph
		reload bool
	}{
		{"aids", aidsPairs(9), false}, {"syn", synPairs(9), false},
		{"aids-apart", aidsApartPairs(200), true}, {"syn-apart", synApartPairs(500), true},
	} {
		arenas := []*pairCtx{{}}
		if !family.reload {
			arenas = make([]*pairCtx, len(family.pairs))
			for i, p := range family.pairs {
				arenas[i] = acquire(p[0], p[1])
				arenas[i].prepSearch()
			}
		}
		b.Run(family.name+"/load", func(b *testing.B) {
			c := &pairCtx{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := family.pairs[i%len(family.pairs)]
				c.load(p[0], p[1])
			}
		})
		for _, member := range []struct {
			name   string
			run    func(*pairCtx)
			bodies bool
		}{
			{"prepSearch+astar(30)", func(c *pairCtx) { c.prepSearch(); c.astar(30) }, false},
			{"vj", func(c *pairCtx) { c.vj() }, true},
			{"hungarian", func(c *pairCtx) { c.hungarian() }, true},
			{"beam(4)", func(c *pairCtx) { c.beam(4) }, false},
		} {
			run := func(name string) {
				b.Run(name, func(b *testing.B) {
					var solves, searches, popped int
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						c := arenas[i%len(arenas)]
						if family.reload {
							p := family.pairs[i%len(family.pairs)]
							c.load(p[0], p[1])
							c.prepSearch()
						}
						s0, se0, p0 := c.solves, c.searches, c.popped
						member.run(c)
						solves, searches, popped = solves+c.solves-s0, searches+c.searches-se0, popped+c.popped-p0
					}
					if solves > 0 {
						b.ReportMetric(float64(searches)/float64(solves), "searches/solve")
						b.ReportMetric(float64(popped)/float64(solves), "pops/solve")
					}
				})
			}
			if !member.bodies {
				run(family.name + "/" + member.name)
				continue
			}
			eachBody(func(body string) { run(family.name + "/" + member.name + "/" + body) })
		}
		if !family.reload {
			for _, c := range arenas {
				release(c)
			}
		}
	}
}
