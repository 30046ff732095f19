package models

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/lansearch/lan/internal/cg"
	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/internal/pg"
)

// rankFixture is an untrained (randomly initialised) M_rk and M_nh over
// the AIDS-like fixture: identity and allocation tests need the inference
// path, not a good model.
type rankFixture struct {
	*fixture
	mrk   *NeighborRanker
	mnh   *NeighborhoodModel
	store pg.GraphStore
	qc    *cg.Compressed
	// walk is a breadth-first order over the proximity graph from node 0:
	// consecutive nodes share neighbours, as a routing trajectory does.
	walk []int
}

// rankShape is what a ranking call's cost depends on: the graphs, the
// proximity graph's degree and the models' width.
type rankShape struct {
	name   string
	spec   dataset.Spec
	m, dim int
}

var (
	// aidsShape is the identity tests' fixture: 26-node molecules, heads
	// 24 -> 16 -> 1.
	aidsShape = rankShape{"aids", dataset.AIDS(0.002), 5, 8}
	// synShape is the benchmark's syn_hung index at a third of its
	// database: 10-node graphs, M = 6, Dim 16, heads 48 -> 32 -> 1.
	synShape = rankShape{"syn", dataset.SYN(0.0002), 6, 16}

	rankShapes = []rankShape{aidsShape, synShape}
)

func newRankFixture(tb testing.TB) *rankFixture { return newRankFixtureOf(tb, aidsShape) }

func newRankFixtureOf(tb testing.TB, shape rankShape) *rankFixture {
	tb.Helper()
	f := newFixtureOf(tb, shape.spec, shape.m, 2)
	cfg := Config{Layers: 2, Dim: shape.dim, BatchPercent: 20, GammaStar: f.gamma, Seed: 5}
	rf := &rankFixture{
		fixture: f,
		mrk:     NewNeighborRanker(cfg, f.store),
		mnh:     NewNeighborhoodModel(cfg, f.store),
		store:   pg.NewRAMStore(f.db),
		qc:      f.store.Query(f.queries[0]),
	}
	rf.mrk.PrecomputeNodeEmbeddings(f.db, 1)
	seen := map[int]bool{0: true}
	rf.walk = []int{0}
	for i := 0; i < len(rf.walk) && len(rf.walk) < 40; i++ {
		for _, nb := range f.index.PG.Neighbors(rf.walk[i]) {
			if !seen[nb] {
				seen[nb] = true
				rf.walk = append(rf.walk, nb)
			}
		}
	}
	return rf
}

// TestRankerMemoBitIdentical walks a trajectory whose nodes share
// neighbours and holds the workspace ranker — which infers each distinct
// neighbour once and scores it again from the memo — to the reference
// ranker, which runs the matrix kernels for every (node, neighbour): same
// scores (==) and the same batches, the first time a neighbour is met and
// the n-th.
func TestRankerMemoBitIdentical(t *testing.T) {
	rf := newRankFixture(t)
	var rs RankerStats
	ws := cg.NewWorkspace()
	rk := rf.mrk.Ranker(ws, rf.store, rf.queries[0], rf.qc, &rs)
	ref := refRanker(rf.mrk, rf.store, rf.qc)
	met := make(map[int]int)
	var kept [][][]int
	for _, node := range rf.walk {
		neighbors := rf.index.PG.Neighbors(node)
		got, want := rk.Batches(node, neighbors, 0), ref.Batches(node, neighbors, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d: batches %v; reference %v", node, got, want)
		}
		kept = append(kept, got)
		for _, nb := range neighbors {
			met[nb]++
		}
	}
	// The router keeps every node's batches until the search ends: later
	// calls must not have overwritten earlier ones.
	for i, node := range rf.walk {
		if want := ref.Batches(node, rf.index.PG.Neighbors(node), 0); !reflect.DeepEqual(kept[i], want) {
			t.Fatalf("node %d: batches changed after later ranking calls: %v; want %v", node, kept[i], want)
		}
	}
	most := 0
	for _, n := range met {
		if n > most {
			most = n
		}
	}
	if most < 3 || rs.MemoHits == 0 {
		t.Fatalf("walk never met a neighbour three times (most %d, memo hits %d): the test lost its subject", most, rs.MemoHits)
	}
	if rs.Inferences != len(met) {
		t.Fatalf("%d inferences for %d distinct neighbours", rs.Inferences, len(met))
	}

	// Scores, not just the order they induce: a fresh scorer (memo misses)
	// and the same scorer again (memo hits) against the reference.
	sc := rf.mrk.bind(ws, rf.qc, nil)
	for pass := 0; pass < 2; pass++ {
		for _, node := range rf.walk {
			emb := rf.mrk.nodeEmbedding(rf.db[node])
			for _, nb := range rf.index.PG.Neighbors(node) {
				if got, want := sc.score(nb, rf.db[nb], emb), refScore(rf.mrk, rf.qc, rf.db[nb], emb); got != want {
					t.Fatalf("pass %d: score(node %d, neighbour %d) = %v; reference %v", pass, node, nb, got, want)
				}
			}
		}
	}
	// Score, the public one-off, goes through the same scorer.
	if got, want := rf.mrk.Score(rf.queries[0], rf.db[1], rf.db[0]), refScore(rf.mrk, rf.qc, rf.db[1], rf.mrk.nodeEmbedding(rf.db[0])); got != want {
		t.Fatalf("Score = %v; reference %v", got, want)
	}
}

func TestProbCGMatchesReference(t *testing.T) {
	rf := newRankFixture(t)
	ws := cg.NewWorkspace()
	rf.mnh.Bind(ws, rf.qc)
	for _, g := range rf.db {
		if got, want := rf.mnh.ProbCG(ws, g), refProbCG(rf.mnh, g, rf.qc); got != want {
			t.Fatalf("graph %d: ProbCG = %v; reference %v", g.ID, got, want)
		}
	}
	if got, want := rf.mnh.Prob(rf.db[3], rf.queries[0]), refProbCG(rf.mnh, rf.db[3], rf.qc); got != want {
		t.Fatalf("Prob = %v; reference %v", got, want)
	}
}

// TestInferAllocs: once a workspace has seen a search's worth of work, a
// ranking call — memo misses and memo hits alike — and an M_nh prediction
// allocate nothing, and keep allocating nothing after the collector has
// run (two cycles empty a sync.Pool; the workspace is not one). Runs
// under -race as well.
func TestInferAllocs(t *testing.T) {
	rf := newRankFixture(t)
	ws := cg.NewWorkspace()
	rk := rf.mrk.Ranker(ws, rf.store, rf.queries[0], rf.qc, nil).(*searchRanker)
	search := func() {
		ws.Reset()
		rk.sc = rf.mrk.bind(ws, rf.qc, nil)
		for _, node := range rf.walk {
			rk.Batches(node, rf.index.PG.Neighbors(node), 0)
			rk.Batches(node, rf.index.PG.Neighbors(node), rf.gamma+1) // outside N_Q: one batch
		}
	}
	search()
	search()
	runtime.GC()
	runtime.GC()
	if n := testing.AllocsPerRun(10, search); n != 0 {
		t.Errorf("a warmed search's ranking calls allocate %v objects", n)
	}

	predict := func() {
		ws.Reset()
		rf.mnh.Bind(ws, rf.qc)
		for _, g := range rf.db[:32] {
			rf.mnh.ProbCG(ws, g)
		}
	}
	predict()
	runtime.GC()
	runtime.GC()
	if n := testing.AllocsPerRun(10, predict); n != 0 {
		t.Errorf("32 warmed ProbCG calls allocate %v objects", n)
	}
}

// TestCGStoreConcurrentHitsAndMisses: readers share the lock on the hit
// path while misses insert; every lookup returns the graph's own CG, and
// the cache ends holding each graph looked up once (run under -race).
func TestCGStoreConcurrentHitsAndMisses(t *testing.T) {
	f := newFixture(t, 0.001, 1)
	s := NewCGStore(f.db, 2, true)
	looked := make(map[int]bool)
	for w := 0; w < 4; w++ {
		for i := 0; i < 400; i++ {
			looked[(i*7+w)%len(f.db)] = true
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				g := f.db[(i*7+w)%len(f.db)]
				if c := s.For(g); c.N != g.N() {
					t.Errorf("For(graph %d) returned a CG of %d nodes; graph has %d", g.ID, c.N, g.N())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := len(s.byID); n != len(looked) {
		t.Fatalf("cache holds %d entries after lookups of %d graphs", n, len(looked))
	}
}

var benchBatches [][]int

// BenchmarkRankerCall is one ranking call of a search in steady state:
// the walk's nodes in turn on one workspace, the memo restarted every lap
// (so a lap pays each distinct neighbour's inference once, as a search
// does). The syn case is the shape models.us_per_ranker_call is measured
// at on the benchmark's syn_hung.
func BenchmarkRankerCall(b *testing.B) {
	for _, shape := range rankShapes {
		b.Run(shape.name, func(b *testing.B) {
			rf := newRankFixtureOf(b, shape)
			ws := cg.NewWorkspace()
			rk := rf.mrk.Ranker(ws, rf.store, rf.queries[0], rf.qc, nil).(*searchRanker)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(rf.walk) == 0 {
					ws.Reset()
					rk.sc = rf.mrk.bind(ws, rf.qc, nil)
				}
				node := rf.walk[i%len(rf.walk)]
				benchBatches = rk.Batches(node, rf.index.PG.Neighbors(node), 0)
			}
		})
	}
}

func BenchmarkRankerCallReference(b *testing.B) {
	for _, shape := range rankShapes {
		b.Run(shape.name, func(b *testing.B) {
			rf := newRankFixtureOf(b, shape)
			rk := refRanker(rf.mrk, rf.store, rf.qc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				node := rf.walk[i%len(rf.walk)]
				benchBatches = rk.Batches(node, rf.index.PG.Neighbors(node), 0)
			}
		})
	}
}

var benchScore float64

// headsBench is the heads' share of one score at the syn shape, the cross
// network excluded: the neighbour's cross embedding is computed before the
// clock starts.
func headsBench(b *testing.B) (rf *rankFixture, cross, nodeEmb []float64) {
	rf = newRankFixtureOf(b, synShape)
	cross = rf.mrk.cross.Infer(rf.mrk.store.For(rf.db[1]), rf.qc)
	return rf, cross, rf.mrk.nodeEmbedding(rf.db[0])
}

// BenchmarkHeads: miss is the first score of a neighbour (the heads' whole
// first layer: the prefix into the memo row, then resumed), hit every later
// one (resumed from the row).
func BenchmarkHeads(b *testing.B) {
	rf, cross, nodeEmb := headsBench(b)
	sc := rf.mrk.bind(cg.NewWorkspace(), rf.qc, nil)
	prefix, _ := sc.ws.MemoRow(1)
	sc.headPrefixes(prefix, cross)
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc.headPrefixes(prefix, cross)
			benchScore = sc.headSum(prefix, nodeEmb)
		}
	})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchScore = sc.headSum(prefix, nodeEmb)
		}
	})
}

// BenchmarkHeadsReference is what every score, first or n-th, paid for its
// heads before the workspace.
func BenchmarkHeadsReference(b *testing.B) {
	rf, cross, nodeEmb := headsBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchScore = refHeadSum(rf.mrk, cross, nodeEmb)
	}
}
