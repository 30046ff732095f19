package route

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
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

// TestTheorem1OracleEquivalence is the paper's central correctness claim:
// with an oracle ranker and the same entry and beam, np_route matches the
// baseline's results while saving distance computations.
//
// Tie caveat: Theorem 1 implicitly assumes distinct distances. With
// integer GEDs ties are common, and the Algorithm-3 re-qualification sweep
// re-adds tied unexplored nodes that the baseline evicted permanently (the
// paper's own tie-break ranks unexplored above explored at equal
// distance), so np_route can explore a few extra nodes — and then returns
// results at least as good as the baseline's. We therefore assert: results
// are never worse at any rank, identical on a large majority of queries,
// and aggregate NDC strictly drops.
func TestTheorem1OracleEquivalence(t *testing.T) {
	metric := ged.MetricFunc(ged.Hungarian)
	var totalBase, totalNp, queries, identical int
	for seed := int64(0); seed < 6; seed++ {
		db := clusteredDB(seed, 8, 8)
		h := buildIndex(t, db, seed)
		gen := graph.NewGenerator(seed + 100)
		labels := []string{"C", "N", "O", "S"}
		for qi := 0; qi < 6; qi++ {
			q := gen.Mutate(db[(qi*13)%len(db)], 1+qi%3, labels)
			for _, cfg := range []struct{ k, b int }{{1, 4}, {5, 10}, {10, 25}} {
				entry := (qi * 7) % len(db)

				cBase := pg.NewDistCache(metric, db, q)
				wantRes, wantStats, _ := pg.BeamSearch(context.Background(), h.PG, cBase, entry, cfg.k, cfg.b)

				cNp := pg.NewDistCache(metric, db, q)
				oracle := &OracleRanker{Cache: cNp, BatchPercent: 20}
				gotRes, gotStats, _ := Route(context.Background(), h.PG, cNp, oracle, entry, Config{K: cfg.k, Beam: cfg.b})

				if !resultsNoWorse(gotRes, wantRes) {
					t.Fatalf("seed %d query %d k=%d b=%d: np results worse than baseline\n np: %v\n bs: %v",
						seed, qi, cfg.k, cfg.b, gotRes, wantRes)
				}
				if sameResults(gotRes, wantRes) {
					identical++
				}
				if gotStats.NDC > wantStats.NDC+wantStats.NDC/4+5 {
					t.Fatalf("seed %d query %d k=%d b=%d: NDC %d far above baseline %d",
						seed, qi, cfg.k, cfg.b, gotStats.NDC, wantStats.NDC)
				}
				totalBase += wantStats.NDC
				totalNp += gotStats.NDC
				queries++
			}
		}
	}
	if totalNp >= totalBase {
		t.Fatalf("aggregate NDC not reduced: np %d >= baseline %d", totalNp, totalBase)
	}
	if float64(identical) < 0.7*float64(queries) {
		t.Fatalf("only %d/%d queries returned identical results", identical, queries)
	}
	t.Logf("identical results on %d/%d queries; aggregate NDC baseline %d vs np %d (%.2fx)",
		identical, queries, totalBase, totalNp, float64(totalBase)/float64(totalNp))
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
		_, sb, _ := pg.BeamSearch(context.Background(), h.PG, cb, entry, 5, 12)
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
	// Degenerate percents fall back to 20.
	if got := SplitBatches(ranked, 0); len(got) != 5 {
		t.Fatalf("percent=0 split = %v", got)
	}
	if got := SplitBatches(ranked, 200); len(got) != 5 {
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

// TestFullExplorationRankerMatchesBaselineExactly uses a single 100% batch:
// np_route degenerates to the baseline and NDC must be equal, not just <=.
func TestFullExplorationRankerMatchesBaselineExactly(t *testing.T) {
	metric := ged.MetricFunc(ged.Hungarian)
	db := clusteredDB(21, 6, 8)
	h := buildIndex(t, db, 21)
	gen := graph.NewGenerator(3)
	labels := []string{"C", "N", "O", "S"}
	for qi := 0; qi < 5; qi++ {
		q := gen.Mutate(db[qi*7%len(db)], 2, labels)
		entry := qi % len(db)

		cb := pg.NewDistCache(metric, db, q)
		wantRes, _, _ := pg.BeamSearch(context.Background(), h.PG, cb, entry, 5, 10)

		cn := pg.NewDistCache(metric, db, q)
		all := RankerFunc(func(node int, neighbors []int, d float64) [][]int {
			return SplitBatches(append([]int(nil), neighbors...), 100)
		})
		gotRes, _, _ := Route(context.Background(), h.PG, cn, all, entry, Config{K: 5, Beam: 10})
		if !sameResults(gotRes, wantRes) {
			t.Fatalf("query %d: 100%%-batch np_route != baseline\n np: %v\n bs: %v", qi, gotRes, wantRes)
		}
	}
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
// without starting another distance computation.
func TestRouteCancelInsideEveryDistance(t *testing.T) {
	plain := ged.MetricFunc(ged.Hungarian)
	db := clusteredDB(3, 6, 8)
	h := buildIndex(t, db, 3)
	gen := graph.NewGenerator(103)
	labels := []string{"C", "N", "O", "S"}
	for qi := 0; qi < 8; qi++ {
		q := gen.Mutate(db[(qi*13)%len(db)], 1+qi%3, labels)
		run := func(n int) (int, error) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			m := &cancelInside{Metric: plain, n: n, cancel: cancel}
			c := pg.NewDistCache(m, db, q)
			// The oracle ranks with the plain metric, so m sees exactly
			// the distances the router pays for.
			oracle := &OracleRanker{Cache: c, BatchPercent: 20, RankMetric: plain}
			_, _, err := Route(ctx, h.PG, c, oracle, (qi*7)%len(db), Config{K: 3, Beam: 6})
			return m.calls, err
		}
		ndc, err := run(0)
		if err != nil || ndc == 0 {
			t.Fatalf("query %d: uncancelled route: %d calls, err %v", qi, ndc, err)
		}
		for i := 1; i <= ndc; i++ {
			calls, err := run(i)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("query %d: cancel inside call %d/%d: err = %v; want context.Canceled", qi, i, ndc, err)
			}
			if calls != i {
				t.Errorf("query %d: cancel inside call %d/%d: %d more distance computations started", qi, i, ndc, calls-i)
			}
		}
	}
}

func TestCheckStepSize(t *testing.T) {
	for _, d := range []float64{0, -1, MinStepSize, 0.5, 1, MaxStepSize} {
		if err := CheckStepSize(d); err != nil {
			t.Errorf("CheckStepSize(%v) = %v; want nil", d, err)
		}
	}
	for _, d := range []float64{1e-300, 1e-17, MinStepSize / 2, 2 * MaxStepSize, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := CheckStepSize(d); !errors.Is(err, ErrStepSize) {
			t.Errorf("CheckStepSize(%v) = %v; want ErrStepSize", d, err)
		}
	}
}

// TestRouteSmallestStepTerminates: stage 2 ends only because γ grows, so
// the smallest step CheckStepSize lets through must still carry γ across
// the database's distance range — a step γ absorbs (1e-17 here) spins to
// the deadline without paying one distance.
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
	res, stats, err := Route(ctx, h.PG, c, &OracleRanker{Cache: c, BatchPercent: 20}, h.Entry, Config{K: 5, Beam: 8, StepSize: MinStepSize})
	if err != nil {
		t.Fatalf("Route at step %v: %v after %d supersteps", MinStepSize, err, stats.GammaSteps)
	}
	if len(res) != 5 {
		t.Fatalf("%d results; want 5", len(res))
	}
	if limit := int(farthest/MinStepSize) + 1; stats.GammaSteps > limit {
		t.Fatalf("%d supersteps to cross a distance range of %v at step %v; want at most %d", stats.GammaSteps, farthest, MinStepSize, limit)
	}
	t.Logf("step %v: %d supersteps, NDC %d, farthest graph at %v", MinStepSize, stats.GammaSteps, stats.NDC, farthest)
}
