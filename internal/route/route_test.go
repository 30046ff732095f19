package route

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/obs"
	"github.com/lansearch/lan/internal/order"
	"github.com/lansearch/lan/internal/pg"
)

func clusteredDB(seed int64, clusters, perCluster int) graph.Database {
	gen := graph.NewGenerator(seed)
	labels := []string{"C", "N", "O", "S"}
	var gs []*graph.Graph
	for c := 0; c < clusters; c++ {
		base := gen.MoleculeLike(9+c%5, 1, labels, 0.4)
		gs = append(gs, base)
		for i := 1; i < perCluster; i++ {
			gs = append(gs, gen.Mutate(base, 1+i%3, labels))
		}
	}
	return graph.NewDatabase(gs)
}

func buildIndex(t *testing.T, db graph.Database, seed int64) *pg.HNSW {
	t.Helper()
	h, err := pg.Build(db, pg.BuildConfig{M: 5, EfConstruction: 12, Seed: seed})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return h
}

func sameResults(a, b []pg.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// resultsNoWorse reports whether every rank of got is at least as close as
// the corresponding rank of want.
func resultsNoWorse(got, want []pg.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Dist > want[i].Dist {
			return false
		}
	}
	return true
}

// eachFixtureRouting calls f for the 108 routings of the Theorem 1
// fixture: 6 indexes × 6 queries × 3 (k, b) settings, each with its own
// entry node.
func eachFixtureRouting(t *testing.T, f func(name string, h *pg.HNSW, db graph.Database, q *graph.Graph, entry int, cfg Config)) {
	t.Helper()
	labels := []string{"C", "N", "O", "S"}
	for seed := int64(0); seed < 6; seed++ {
		db := clusteredDB(seed, 8, 8)
		h := buildIndex(t, db, seed)
		gen := graph.NewGenerator(seed + 100)
		for qi := 0; qi < 6; qi++ {
			q := gen.Mutate(db[(qi*13)%len(db)], 1+qi%3, labels)
			for _, kb := range []struct{ k, b int }{{1, 4}, {5, 10}, {10, 25}} {
				name := fmt.Sprintf("seed %d query %d k=%d b=%d", seed, qi, kb.k, kb.b)
				f(name, h, db, q, (qi*7)%len(db), Config{K: kb.k, Beam: kb.b})
			}
		}
	}
}

// TestTheorem1OracleEquivalence is the paper's central correctness claim
// (Theorem 1 and Lemma 1): with an oracle ranker and the same entry and
// beam, np_route returns the baseline's results and never pays more
// distances. The baseline is Route with a nil ranker — the same loop with
// every neighbor in one batch — so the claim holds on every query, ties
// included (DESIGN.md deviation 2).
func TestTheorem1OracleEquivalence(t *testing.T) {
	metric := ged.MetricFunc(ged.Hungarian)
	var totalBase, totalNp, queries int
	eachFixtureRouting(t, func(name string, h *pg.HNSW, db graph.Database, q *graph.Graph, entry int, cfg Config) {
		cBase := pg.NewDistCache(metric, db, q)
		wantRes, wantStats, err := Route(context.Background(), h.PG, cBase, nil, entry, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cNp := pg.NewDistCache(metric, db, q)
		oracle := &OracleRanker{Cache: cNp, BatchPercent: 20}
		gotRes, gotStats, err := Route(context.Background(), h.PG, cNp, oracle, entry, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(gotRes, wantRes) {
			t.Fatalf("%s: oracle results differ from the baseline's\n np: %v\n bs: %v", name, gotRes, wantRes)
		}
		if gotStats.NDC > wantStats.NDC {
			t.Fatalf("%s: oracle NDC %d above baseline %d", name, gotStats.NDC, wantStats.NDC)
		}
		totalBase += wantStats.NDC
		totalNp += gotStats.NDC
		queries++
	})
	if totalNp >= totalBase {
		t.Fatalf("aggregate NDC not reduced: np %d >= baseline %d", totalNp, totalBase)
	}
	t.Logf("identical results and NDC <= baseline on %d/%d queries; aggregate NDC baseline %d vs np %d (%.2fx)",
		queries, queries, totalBase, totalNp, float64(totalBase)/float64(totalNp))
}

// TestBaselineNeverWorseThanReference holds Route with a nil ranker to
// Algorithm 1 as pg.BeamSearch ran it (refBeamSearch): at every rank its
// answer is at least as close. The sweep's tie re-adds can only add
// exploration, so the loops may differ, but never to the baseline's loss.
func TestBaselineNeverWorseThanReference(t *testing.T) {
	metric := ged.MetricFunc(ged.Hungarian)
	var refNDC, ndc, queries, identical int
	eachFixtureRouting(t, func(name string, h *pg.HNSW, db graph.Database, q *graph.Graph, entry int, cfg Config) {
		wantRes, wantStats := refBeamSearch(h.PG, pg.NewDistCache(metric, db, q), entry, cfg.K, cfg.Beam)
		gotRes, gotStats, err := Route(context.Background(), h.PG, pg.NewDistCache(metric, db, q), nil, entry, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsNoWorse(gotRes, wantRes) {
			t.Fatalf("%s: results worse than Algorithm 1's\n route: %v\n ref:   %v", name, gotRes, wantRes)
		}
		if sameResults(gotRes, wantRes) {
			identical++
		}
		refNDC += wantStats.NDC
		ndc += gotStats.NDC
		queries++
	})
	t.Logf("identical results on %d/%d queries; aggregate NDC reference %d vs nil ranker %d", identical, queries, refNDC, ndc)
}

func TestNpRouteSavesNDCOnAverage(t *testing.T) {
	metric := ged.MetricFunc(ged.Hungarian)
	db := clusteredDB(42, 12, 10)
	h := buildIndex(t, db, 42)
	gen := graph.NewGenerator(7)
	labels := []string{"C", "N", "O", "S"}

	var baseNDC, npNDC int
	for qi := 0; qi < 12; qi++ {
		q := gen.Mutate(db[(qi*11)%len(db)], 1, labels)
		entry := (qi * 5) % len(db)
		cb := pg.NewDistCache(metric, db, q)
		_, sb, _ := Route(context.Background(), h.PG, cb, nil, entry, Config{K: 5, Beam: 12})
		cn := pg.NewDistCache(metric, db, q)
		_, sn, _ := Route(context.Background(), h.PG, cn, &OracleRanker{Cache: cn, BatchPercent: 20}, entry, Config{K: 5, Beam: 12})
		baseNDC += sb.NDC
		npNDC += sn.NDC
	}
	if npNDC >= baseNDC {
		t.Fatalf("np_route saved nothing: %d >= %d", npNDC, baseNDC)
	}
	t.Logf("NDC: baseline %d, np_route %d (%.2fx reduction)", baseNDC, npNDC, float64(baseNDC)/float64(npNDC))
}

func bruteForceKNN(metric ged.Metric, db graph.Database, q *graph.Graph, k int) []pg.Result {
	res := make([]pg.Result, len(db))
	for i, g := range db {
		res[i] = pg.Result{ID: i, Dist: metric.Distance(g, q)}
	}
	sort.Slice(res, func(i, j int) bool {
		return order.ByDistThenID(res[i].Dist, res[i].ID, res[j].Dist, res[j].ID)
	})
	return res[:k]
}

func recallAt(got, want []pg.Result) float64 {
	wantSet := make(map[int]bool, len(want))
	for _, r := range want {
		wantSet[r.ID] = true
	}
	hit := 0
	for _, r := range got {
		if wantSet[r.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

func TestBeamSearchFindsPlantedNeighbors(t *testing.T) {
	db := clusteredDB(2, 10, 10)
	h := buildIndex(t, db, 1)
	gen := graph.NewGenerator(77)
	labels := []string{"C", "N", "O", "S"}
	metric := ged.MetricFunc(ged.Hungarian)

	recallSum := 0.0
	queries := 10
	for i := 0; i < queries; i++ {
		q := gen.Mutate(db[(i*10)%len(db)], 1, labels)
		c := pg.NewDistCache(metric, db, q)
		entry := h.EntryPoint(context.Background(), c)
		got, stats, _ := Route(context.Background(), h.PG, c, nil, entry, Config{K: 10, Beam: 40})
		if len(got) != 10 {
			t.Fatalf("query %d: %d results", i, len(got))
		}
		if stats.NDC <= 0 || stats.Explored <= 0 {
			t.Fatalf("query %d: empty stats %+v", i, stats)
		}
		recallSum += recallAt(got, bruteForceKNN(metric, db, q, 10))
	}
	if avg := recallSum / float64(queries); avg < 0.8 {
		t.Fatalf("avg recall@10 = %v; want >= 0.8", avg)
	}
}

func TestBeamSearchLargerBeamHigherRecallOrEqualNDC(t *testing.T) {
	db := clusteredDB(3, 8, 8)
	h := buildIndex(t, db, 1)
	q := graph.NewGenerator(5).Mutate(db[3], 2, []string{"C", "N", "O", "S"})
	metric := ged.MetricFunc(ged.Hungarian)

	c1 := pg.NewDistCache(metric, db, q)
	_, s1, _ := Route(context.Background(), h.PG, c1, nil, 0, Config{K: 5, Beam: 5})
	c2 := pg.NewDistCache(metric, db, q)
	_, s2, _ := Route(context.Background(), h.PG, c2, nil, 0, Config{K: 5, Beam: 30})
	if s2.NDC < s1.NDC {
		t.Fatalf("wider beam used fewer NDC: %d < %d", s2.NDC, s1.NDC)
	}
}

func TestBeamSearchResultsSortedAndUnique(t *testing.T) {
	db := clusteredDB(4, 6, 6)
	h := buildIndex(t, db, 1)
	q := graph.NewGenerator(9).MoleculeLike(10, 1, []string{"C", "N"}, 0.3)
	c := pg.NewDistCache(ged.MetricFunc(ged.Hungarian), db, q)
	got, _, _ := Route(context.Background(), h.PG, c, nil, 0, Config{K: 8, Beam: 16})
	if len(got) != 8 {
		t.Fatalf("%d results; want 8", len(got))
	}
	seen := make(map[int]bool)
	for i, r := range got {
		if seen[r.ID] {
			t.Fatalf("duplicate result %d", r.ID)
		}
		seen[r.ID] = true
		if i > 0 && got[i-1].Dist > r.Dist {
			t.Fatalf("results not sorted: %v", got)
		}
	}
}

func TestSplitBatches(t *testing.T) {
	ranked := []int{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	b := SplitBatches(ranked, 20)
	if len(b) != 5 {
		t.Fatalf("batches = %v", b)
	}
	for i, batch := range b {
		if len(batch) != 2 {
			t.Fatalf("batch %d size %d", i, len(batch))
		}
	}
	// Order preserved across batches.
	if b[0][0] != 9 || b[4][1] != 0 {
		t.Fatalf("order lost: %v", b)
	}
	// Uneven split: ceil sizing.
	b = SplitBatches([]int{1, 2, 3}, 50)
	if len(b) != 2 || len(b[0]) != 2 || len(b[1]) != 1 {
		t.Fatalf("uneven split = %v", b)
	}
	// Percents are taken as given: nothing defaults y. Beyond 100 is
	// one batch; 0 floors at one neighbour a batch.
	if got := SplitBatches(ranked, 0); len(got) != 10 {
		t.Fatalf("percent=0 split = %v", got)
	}
	if got := SplitBatches(ranked, 200); len(got) != 1 {
		t.Fatalf("percent=200 split = %v", got)
	}
	if SplitBatches(nil, 20) != nil {
		t.Fatal("empty input should give nil")
	}
	// 100%: single batch.
	if got := SplitBatches(ranked, 100); len(got) != 1 || len(got[0]) != 10 {
		t.Fatalf("percent=100 split = %v", got)
	}
}

func TestOracleBatchesSortedByTrueDistance(t *testing.T) {
	metric := ged.MetricFunc(ged.Hungarian)
	db := clusteredDB(3, 5, 6)
	q := graph.NewGenerator(5).Mutate(db[0], 2, []string{"C", "N", "O", "S"})
	c := pg.NewDistCache(metric, db, q)
	oracle := &OracleRanker{Cache: c, BatchPercent: 25}
	neighbors := []int{3, 17, 8, 22, 11, 5, 29, 1}
	batches := oracle.Batches(0, neighbors, 0)
	var flat []int
	for _, b := range batches {
		flat = append(flat, b...)
	}
	if len(flat) != len(neighbors) {
		t.Fatalf("lost neighbors: %v", batches)
	}
	for i := 1; i < len(flat); i++ {
		di := metric.Distance(db[flat[i-1]], q)
		dj := metric.Distance(db[flat[i]], q)
		if di > dj {
			t.Fatalf("batch order violates true distances at %d: %v > %v", i, di, dj)
		}
	}
	// Ranking must not have charged the cache.
	if c.NDC() != 0 {
		t.Fatalf("oracle charged %d NDC", c.NDC())
	}
}

func TestRouteSingleNodeDB(t *testing.T) {
	g := graph.NewGenerator(1).MoleculeLike(6, 0, []string{"A", "B"}, 0.3)
	db := graph.NewDatabase([]*graph.Graph{g})
	p := &pg.PG{DB: db, Adj: [][]int{nil}}
	q := graph.NewGenerator(2).MoleculeLike(5, 0, []string{"A", "B"}, 0.3)
	c := pg.NewDistCache(ged.MetricFunc(ged.VJ), db, q)
	res, stats, _ := Route(context.Background(), p, c, &OracleRanker{Cache: c}, 0, Config{K: 3, Beam: 4})
	if len(res) != 1 || res[0].ID != 0 {
		t.Fatalf("res = %v", res)
	}
	if stats.NDC != 1 {
		t.Fatalf("NDC = %d; want 1", stats.NDC)
	}
}

func TestRouteConfigDefaults(t *testing.T) {
	cfg := Config{}
	cfg.defaults()
	if cfg.K != 1 || cfg.Beam != 1 || cfg.StepSize != 1 {
		t.Fatalf("defaults = %+v", cfg)
	}
	cfg = Config{K: 10, Beam: 5}
	cfg.defaults()
	if cfg.Beam != 10 {
		t.Fatalf("beam not raised to k: %+v", cfg)
	}
}

func TestRouteStatsPopulated(t *testing.T) {
	metric := ged.MetricFunc(ged.Hungarian)
	db := clusteredDB(9, 6, 6)
	h := buildIndex(t, db, 9)
	q := graph.NewGenerator(11).Mutate(db[4], 2, []string{"C", "N", "O", "S"})
	c := pg.NewDistCache(metric, db, q)
	_, stats, _ := Route(context.Background(), h.PG, c, &OracleRanker{Cache: c, BatchPercent: 20}, 0, Config{K: 5, Beam: 10})
	if stats.NDC <= 0 || stats.Explored <= 0 || stats.RankerCalls <= 0 || stats.BatchesOpened <= 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
	if stats.RankerCalls < stats.Explored {
		t.Fatalf("fewer ranker calls (%d) than explored nodes (%d)", stats.RankerCalls, stats.Explored)
	}
}

// TestFullExplorationRankerMatchesBaselineExactly: a ranker that puts every
// neighbor it is handed in one 100% batch walks the nil ranker's
// Algorithm 1 exactly — results, NDC, cache hits, explored steps and γ.
// Only the counters differ, by the known set: the ranker is handed only
// the neighbors whose distance is not yet known, so every one it ranks is
// opened and paid once (Ranked == Opened == NDC − 1, the entry being the
// other call), a batch is opened only for a node with an unknown
// neighbor, and every explored node still counts a ranker call.
func TestFullExplorationRankerMatchesBaselineExactly(t *testing.T) {
	metric := ged.MetricFunc(ged.Hungarian)
	db := clusteredDB(21, 6, 8)
	h := buildIndex(t, db, 21)
	gen := graph.NewGenerator(3)
	labels := []string{"C", "N", "O", "S"}
	var withUnknown int // explored nodes handed at least one neighbor
	all := RankerFunc(func(node int, neighbors []int, d float64) [][]int {
		withUnknown++
		return SplitBatches(append([]int(nil), neighbors...), 100)
	})
	for qi := 0; qi < 5; qi++ {
		q := gen.Mutate(db[qi*7%len(db)], 2, labels)
		run := func(ranker Ranker) ([]pg.Result, Stats, int, *obs.Trace) {
			tr := obs.NewTrace("q")
			c := pg.NewDistCache(metric, db, q)
			res, st, err := Route(obs.With(context.Background(), tr), h.PG, c, ranker, qi%len(db), Config{K: 5, Beam: 10})
			if err != nil {
				t.Fatal(err)
			}
			return res, st, c.Hits(), tr
		}
		wantRes, wantStats, wantHits, wantTr := run(nil)
		withUnknown = 0
		gotRes, gotStats, gotHits, gotTr := run(all)

		if wantStats.RankerCalls != 0 || wantStats.Ranked != wantStats.Opened || wantStats.Opened == 0 ||
			wantStats.BatchesOpened != wantStats.Explored || wantStats.GammaSteps < 1 {
			t.Errorf("query %d: nil ranker is not one opened batch per explored node: %+v", qi, wantStats)
		}
		if gotStats.RankerCalls != gotStats.Explored {
			t.Errorf("query %d: 100%% ranker counted %d calls for %d explored nodes", qi, gotStats.RankerCalls, gotStats.Explored)
		}
		if gotStats.Ranked != gotStats.Opened || gotStats.Opened != gotStats.NDC-1 {
			t.Errorf("query %d: 100%% ranker ranked %d and opened %d neighbors for NDC %d; want NDC-1 each", qi, gotStats.Ranked, gotStats.Opened, gotStats.NDC)
		}
		if gotStats.BatchesOpened != withUnknown || withUnknown >= gotStats.Explored {
			t.Errorf("query %d: %d batches opened, %d nodes with an unknown neighbor, %d explored; want the first two equal and below the third",
				qi, gotStats.BatchesOpened, withUnknown, gotStats.Explored)
		}
		if gotStats.Ranked >= wantStats.Ranked {
			t.Errorf("query %d: known set handed the ranker %d neighbors, the nil ranker batched %d", qi, gotStats.Ranked, wantStats.Ranked)
		}
		if !sameResults(gotRes, wantRes) || gotStats.NDC != wantStats.NDC || gotStats.Explored != wantStats.Explored ||
			gotStats.GammaSteps != wantStats.GammaSteps || gotHits != wantHits {
			t.Fatalf("query %d: 100%%-batch np_route != nil ranker\n np: %v %+v hits %d\n nil: %v %+v hits %d",
				qi, gotRes, gotStats, gotHits, wantRes, wantStats, wantHits)
		}
		// The trace steps keep node, distance, γ and NDC; their
		// ranked/opened counts follow Stats.
		if len(gotTr.Steps) != len(wantTr.Steps) || !reflect.DeepEqual(gotTr.Gammas, wantTr.Gammas) {
			t.Fatalf("query %d: traces differ\n np:  %v %v\n nil: %v %v", qi, gotTr.Steps, gotTr.Gammas, wantTr.Steps, wantTr.Gammas)
		}
		ranked, opened := 0, 0
		for i, g := range gotTr.Steps {
			w := wantTr.Steps[i]
			if g.Node != w.Node || g.Dist != w.Dist || g.Gamma != w.Gamma || g.NDC != w.NDC {
				t.Fatalf("query %d: step %d is %+v, nil ranker's %+v", qi, i, g, w)
			}
			ranked += g.Ranked
			opened += g.Opened
		}
		if ranked != gotStats.Ranked || opened != gotStats.Opened {
			t.Errorf("query %d: trace steps ranked %d and opened %d; stats %d and %d", qi, ranked, opened, gotStats.Ranked, gotStats.Opened)
		}
	}
}

// TestRankerNeverHandedKnownNeighbor: on the Theorem 1 fixture, under the
// oracle, a 100%-batch ranker and a 20% ranker in PG order, np_route
// hands a ranker only neighbors of the ranked node whose distance the
// query's cache does not hold, ranks each node at most once, calls the
// ranker for no node without such a neighbor, and counts in Ranked
// exactly the neighbors it handed over.
func TestRankerNeverHandedKnownNeighbor(t *testing.T) {
	metric := ged.MetricFunc(ged.Hungarian)
	rankers := []struct {
		name string
		make func(c *pg.DistCache) Ranker
	}{
		{"oracle", func(c *pg.DistCache) Ranker { return &OracleRanker{Cache: c, BatchPercent: 20} }},
		{"100%", func(*pg.DistCache) Ranker {
			return RankerFunc(func(_ int, nbs []int, _ float64) [][]int { return SplitBatches(nbs, 100) })
		}},
		{"20%", func(*pg.DistCache) Ranker {
			return RankerFunc(func(_ int, nbs []int, _ float64) [][]int { return SplitBatches(nbs, 20) })
		}},
	}
	var handed, known int
	eachFixtureRouting(t, func(name string, h *pg.HNSW, db graph.Database, q *graph.Graph, entry int, cfg Config) {
		for _, rk := range rankers {
			c := pg.NewDistCache(metric, db, q)
			inner := rk.make(c)
			ranked := make(map[int]bool)
			count := 0
			rec := RankerFunc(func(node int, nbs []int, d float64) [][]int {
				if len(nbs) == 0 {
					t.Fatalf("%s, %s ranker: called with no neighbor for node %d", name, rk.name, node)
				}
				if ranked[node] {
					t.Fatalf("%s, %s ranker: node %d ranked twice", name, rk.name, node)
				}
				ranked[node] = true
				adj := h.PG.Neighbors(node)
				for _, nb := range nbs {
					if c.Known(nb) {
						t.Fatalf("%s, %s ranker: node %d handed neighbor %d, whose distance is cached", name, rk.name, node, nb)
					}
					if !slices.Contains(adj, nb) {
						t.Fatalf("%s, %s ranker: node %d handed %d, not its neighbor", name, rk.name, node, nb)
					}
				}
				for _, nb := range adj {
					if c.Known(nb) {
						known++
					}
				}
				count += len(nbs)
				return inner.Batches(node, nbs, d)
			})
			_, st, err := Route(context.Background(), h.PG, c, rec, entry, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st.Ranked != count {
				t.Fatalf("%s, %s ranker: Ranked %d, handed %d", name, rk.name, st.Ranked, count)
			}
			if st.RankerCalls != st.Explored || len(ranked) > st.Explored {
				t.Fatalf("%s, %s ranker: %d ranker calls counted, %d made, %d explored", name, rk.name, st.RankerCalls, len(ranked), st.Explored)
			}
			handed += count
		}
	})
	if known == 0 {
		t.Fatal("no ranked node had a known neighbor: the fixture tests nothing")
	}
	t.Logf("%d neighbors handed to rankers; %d known neighbors of ranked nodes kept from them", handed, known)
}

// TestKnownSetAllocsPerQuery: splitting ranked nodes' neighbors into
// known and unknown allocates per query, not per node. Over a
// precomputed-distance metric (no GED allocations), a 100%-batch ranker
// that allocates one batch list per call walks the nil ranker's path; the
// nil ranker allocates one batch list per explored node, so beyond those
// the two may differ by the one chunk the splits are cut from.
func TestKnownSetAllocsPerQuery(t *testing.T) {
	db := clusteredDB(42, 12, 10)
	h := buildIndex(t, db, 42)
	q := graph.NewGenerator(7).Mutate(db[11], 1, []string{"C", "N", "O", "S"})
	dist := make(map[*graph.Graph]float64, len(db))
	for _, g := range db {
		dist[g] = ged.Hungarian(g, q)
	}
	metric := ged.MetricFunc(func(g, _ *graph.Graph) float64 { return dist[g] })
	calls := 0
	all := RankerFunc(func(_ int, nbs []int, _ float64) [][]int {
		calls++
		return [][]int{nbs}
	})
	var st Stats
	allocs := func(rk Ranker) float64 {
		return testing.AllocsPerRun(10, func() {
			_, st, _ = Route(context.Background(), h.PG, pg.NewDistCache(metric, db, q), rk, 0, Config{K: 5, Beam: 12})
		})
	}
	nilAllocs := allocs(nil)
	explored := st.Explored
	calls = 0
	rkAllocs := allocs(all)
	perRun := float64(calls) / 11 // AllocsPerRun adds a warm-up run
	if st.Explored != explored {
		t.Fatalf("100%% ranker explored %d nodes, nil ranker %d", st.Explored, explored)
	}
	if rkAllocs-perRun > nilAllocs-float64(explored)+1 {
		t.Fatalf("ranker route: %.1f allocs less %.1f ranker batch lists; nil ranker: %.1f less %d batch lists",
			rkAllocs, perRun, nilAllocs, explored)
	}
	t.Logf("%d explored: nil ranker %.1f allocs, 100%% ranker %.1f (%.1f its own)", explored, nilAllocs, rkAllocs, perRun)
}

// cancelInside is a metric that cancels a context from inside its n-th
// distance computation (n = 0: never) and counts the ones begun.
type cancelInside struct {
	ged.Metric
	calls, n int
	cancel   context.CancelFunc
}

func (m *cancelInside) Distance(a, b *graph.Graph) float64 {
	m.calls++
	if m.calls == m.n {
		m.cancel()
	}
	return m.Metric.Distance(a, b)
}

// TestRouteCancelInsideEveryDistance: wherever in np_route a cancel
// lands — the entry distance, a stage-1 batch, a stage-2 re-qualification
// sweep, the very last computation of the query — Route returns ctx.Err()
// without starting another distance computation, with the oracle ranker
// and without a ranker (Algorithm 1).
func TestRouteCancelInsideEveryDistance(t *testing.T) {
	plain := ged.MetricFunc(ged.Hungarian)
	db := clusteredDB(3, 6, 8)
	h := buildIndex(t, db, 3)
	gen := graph.NewGenerator(103)
	labels := []string{"C", "N", "O", "S"}
	for qi := 0; qi < 8; qi++ {
		q := gen.Mutate(db[(qi*13)%len(db)], 1+qi%3, labels)
		for _, oracle := range []bool{true, false} {
			run := func(n int) (int, error) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				m := &cancelInside{Metric: plain, n: n, cancel: cancel}
				c := pg.NewDistCache(m, db, q)
				var ranker Ranker // nil: Algorithm 1
				if oracle {
					// The oracle ranks with the plain metric, so m sees
					// exactly the distances the router pays for.
					ranker = &OracleRanker{Cache: c, BatchPercent: 20, RankMetric: plain}
				}
				_, _, err := Route(ctx, h.PG, c, ranker, (qi*7)%len(db), Config{K: 3, Beam: 6})
				return m.calls, err
			}
			ndc, err := run(0)
			if err != nil || ndc == 0 {
				t.Fatalf("query %d oracle=%v: uncancelled route: %d calls, err %v", qi, oracle, ndc, err)
			}
			for i := 1; i <= ndc; i++ {
				calls, err := run(i)
				if !errors.Is(err, context.Canceled) {
					t.Errorf("query %d oracle=%v: cancel inside call %d/%d: err = %v; want context.Canceled", qi, oracle, i, ndc, err)
				}
				if calls != i {
					t.Errorf("query %d oracle=%v: cancel inside call %d/%d: %d more distance computations started", qi, oracle, i, ndc, calls-i)
				}
			}
		}
	}
}

// TestRouteSmallestStepTerminates: stage 2 ends only because γ grows, so
// a step of 2⁻¹⁰ — below it no d_s means anything, GED under the repo's
// cost model moving in halves — must still carry γ across the database's
// distance range; a step γ absorbs (1e-17 here) spins to the deadline
// without paying one distance.
func TestRouteSmallestStepTerminates(t *testing.T) {
	metric := ged.MetricFunc(ged.Hungarian)
	db := clusteredDB(3, 4, 10)
	h := buildIndex(t, db, 3)
	q := graph.NewGenerator(5).Mutate(db[7], 2, []string{"C", "N", "O", "S"})
	farthest := 0.0
	for _, g := range db {
		farthest = math.Max(farthest, metric.Distance(g, q))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	c := pg.NewDistCache(metric, db, q)
	const step = 1.0 / 1024
	res, stats, err := Route(ctx, h.PG, c, &OracleRanker{Cache: c, BatchPercent: 20}, h.Entry, Config{K: 5, Beam: 8, StepSize: step})
	if err != nil {
		t.Fatalf("Route at step %v: %v after %d supersteps", step, err, stats.GammaSteps)
	}
	if len(res) != 5 {
		t.Fatalf("%d results; want 5", len(res))
	}
	if limit := int(farthest/step) + 1; stats.GammaSteps > limit {
		t.Fatalf("%d supersteps to cross a distance range of %v at step %v; want at most %d", stats.GammaSteps, farthest, step, limit)
	}
	t.Logf("step %v: %d supersteps, NDC %d, farthest graph at %v", step, stats.GammaSteps, stats.NDC, farthest)
}
