package models

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/cg"
	"github.com/lansearch/lan/internal/cluster"
	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/internal/pg"
	"github.com/lansearch/lan/internal/route"
)

// fixture bundles a small end-to-end training environment.
type fixture struct {
	spec    dataset.Spec
	db      graph.Database
	index   *pg.HNSW
	metric  ged.Metric
	table   *DistanceTable
	gamma   float64
	store   *CGStore
	queries []*graph.Graph
}

func newFixture(t testing.TB, scale float64, queries int) *fixture {
	t.Helper()
	return newFixtureOf(t, dataset.AIDS(scale), 5, queries)
}

// newFixtureOf is newFixture over any dataset and proximity-graph degree.
func newFixtureOf(t testing.TB, spec dataset.Spec, m, queries int) *fixture {
	t.Helper()
	db := spec.Generate()
	idx, err := pg.Build(db, pg.BuildConfig{M: m, EfConstruction: 12, Seed: 3})
	if err != nil {
		t.Fatalf("pg.Build: %v", err)
	}
	metric := ged.MetricFunc(ged.Hungarian)
	qs := dataset.Workload(db, spec, queries, 17)
	table := ComputeDistanceTable(db, qs, metric, 2)
	gamma := CalibrateGammaStar(table, 10, 0.9)
	return &fixture{
		spec: spec, db: db, index: idx, metric: metric,
		table: table, gamma: gamma,
		store:   NewCGStore(db, true),
		queries: qs,
	}
}

func TestComputeDistanceTable(t *testing.T) {
	f := newFixture(t, 0.002, 4)
	if len(f.table.D) != 4 || len(f.table.D[0]) != len(f.db) {
		t.Fatalf("table shape %dx%d", len(f.table.D), len(f.table.D[0]))
	}
	// Spot-check against direct computation.
	want := f.metric.Distance(f.db[3], f.queries[1])
	if f.table.D[1][3] != want {
		t.Fatalf("table[1][3] = %v; want %v", f.table.D[1][3], want)
	}
}

func TestCalibrateGammaStar(t *testing.T) {
	table := &DistanceTable{
		D: [][]float64{
			{1, 2, 3, 4, 5},
			{2, 4, 6, 8, 10},
			{1, 1, 1, 1, 1},
		},
	}
	// knn=2: per-query 2nd-smallest distances are 2, 4, 1 -> sorted 1,2,4;
	// quantile 0.9 -> index 2 -> 4.
	if g := CalibrateGammaStar(table, 2, 0.9); g != 4 {
		t.Fatalf("gamma* = %v; want 4", g)
	}
	// knn beyond row length clamps to max.
	if g := CalibrateGammaStar(table, 100, 0); g != 1 {
		t.Fatalf("clamped gamma* = %v; want 1", g)
	}
	if g := CalibrateGammaStar(&DistanceTable{}, 1, 0.9); g != 0 {
		t.Fatalf("empty table gamma* = %v", g)
	}
}

// TestHeads pins the paper's 100/y partial rankers: five at y = 20 %,
// one per head in M_rk, and their cuts cover every neighbour.
func TestHeads(t *testing.T) {
	if Heads != 5 || Heads*BatchPercent < 100 {
		t.Fatalf("Heads = %d at y = %d%%", Heads, BatchPercent)
	}
	f := newFixture(t, 0.001, 2)
	r := NewNeighborRanker(Config{Dim: 4, GammaStar: f.gamma, Seed: 1}, f.store)
	if len(r.heads) != Heads {
		t.Fatalf("M_rk has %d heads; want %d", len(r.heads), Heads)
	}
	if got := r.headTarget(Heads-1, 9, 10); got != 1 {
		t.Fatalf("the last head leaves out the farthest neighbour (target %v)", got)
	}
}

func TestCGStoreCachesByID(t *testing.T) {
	f := newFixture(t, 0.001, 2)
	a := f.store.For(f.db[0])
	b := f.store.For(f.db[0])
	if a != b {
		t.Fatalf("database graph CG not cached")
	}
	q := f.queries[0]
	qa := f.store.For(q)
	qb := f.store.For(q)
	if qa == qb {
		t.Fatalf("free-standing graphs must not share cache entries")
	}
	// Raw-mode store produces per-node groups.
	raw := NewCGStore(f.db, false)
	if raw.For(f.db[0]).Groups(0) != f.db[0].N() {
		t.Fatalf("raw store compressed")
	}
}

func TestBuildRankTrainingSetRestrictsToNeighborhood(t *testing.T) {
	f := newFixture(t, 0.002, 5)
	exs := BuildRankTrainingSet(f.index.PG, f.table, f.gamma)
	if len(exs) == 0 {
		t.Fatal("no rank training examples — gamma* too small for fixture")
	}
	for _, ex := range exs {
		if f.table.D[ex.Qi][ex.Node] > f.gamma {
			t.Fatalf("example outside neighborhood: d=%v > %v", f.table.D[ex.Qi][ex.Node], f.gamma)
		}
		if len(ex.Neighbors) != len(ex.Ranks) {
			t.Fatalf("ranks/neighbors length mismatch")
		}
		// Ranks are a permutation of 0..n-1 consistent with distances.
		seen := make([]bool, len(ex.Ranks))
		for _, r := range ex.Ranks {
			if r < 0 || r >= len(seen) || seen[r] {
				t.Fatalf("bad rank vector %v", ex.Ranks)
			}
			seen[r] = true
		}
		for a := range ex.Neighbors {
			for b := range ex.Neighbors {
				da := f.table.D[ex.Qi][ex.Neighbors[a]]
				db := f.table.D[ex.Qi][ex.Neighbors[b]]
				if da < db && ex.Ranks[a] > ex.Ranks[b] {
					t.Fatalf("rank order violates distances")
				}
			}
		}
	}
}

func TestNeighborRankerLearnsToRank(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode: trains the neighbor ranker to convergence")
	}
	f := newFixture(t, 0.003, 8)
	cfg := Config{Dim: 8, GammaStar: f.gamma, Seed: 1}
	r := NewNeighborRanker(cfg, f.store)
	exs := BuildRankTrainingSet(f.index.PG, f.table, f.gamma)
	if len(exs) > 60 {
		exs = exs[:60]
	}
	before := r.RankAccuracy(f.db, f.table, exs)
	if err := r.Train(f.db, f.table, exs, TrainOptions{Epochs: 4, LR: 0.01}); err != nil {
		t.Fatalf("Train: %v", err)
	}
	after := r.RankAccuracy(f.db, f.table, exs)
	if after <= before && after < 0.6 {
		t.Fatalf("training did not improve ranking: before %.3f after %.3f", before, after)
	}
	t.Logf("top-batch rank accuracy: before %.3f, after %.3f", before, after)
}

func TestNeighborRankerRankerAdapter(t *testing.T) {
	f := newFixture(t, 0.002, 3)
	cfg := Config{Dim: 6, GammaStar: f.gamma, Seed: 2}
	r := NewNeighborRanker(cfg, f.store)
	var rs RankerStats
	rk := r.Ranker(cg.NewWorkspace(), f.db, f.queries[0], nil, &rs)

	neighbors := f.index.PG.Neighbors(0)
	if len(neighbors) < 2 {
		t.Skip("node 0 too sparse")
	}
	// Outside the neighborhood: single batch, no model calls.
	batches := rk.Batches(0, neighbors, f.gamma+100)
	if len(batches) != 1 || rs != (RankerStats{}) {
		t.Fatalf("outside-N_Q batches = %v, stats = %+v", batches, rs)
	}
	// Inside: y%% batches, one inference per (distinct) neighbor.
	batches = rk.Batches(0, neighbors, 0)
	if rs.Inferences != len(neighbors) || rs.MemoHits != 0 {
		t.Fatalf("stats = %+v; want %d inferences, no memo hit", rs, len(neighbors))
	}
	total := 0
	for _, b := range batches {
		total += len(b)
	}
	if total != len(neighbors) {
		t.Fatalf("batches lost neighbors: %v", batches)
	}
	if len(batches) < 2 {
		t.Fatalf("no partitioning inside N_Q: %v", batches)
	}
	// The adapter must work inside np_route end to end.
	cache := pg.NewDistCache(f.metric, f.db, f.queries[0])
	res, stats, _ := route.Route(context.Background(), f.index.PG, cache, rk, 0, route.Config{K: 3, Beam: 8})
	if len(res) == 0 || stats.NDC == 0 {
		t.Fatalf("np_route with learned ranker returned nothing: %v %+v", res, stats)
	}

	// Tied scores — heads saturated alike; here zeroed, so every score is
	// 5·sigmoid(0) — rank by ascending id, in the router's batches and in
	// RankAccuracy alike.
	for _, h := range r.heads {
		for _, l := range h.Layers {
			clear(l.W.Data.Data)
			clear(l.B.Data.Data)
		}
	}
	asc := append([]int(nil), neighbors...)
	sort.Ints(asc)
	var flat []int
	for _, b := range r.Ranker(cg.NewWorkspace(), f.db, f.queries[0], nil, nil).Batches(0, neighbors, 0) {
		flat = append(flat, b...)
	}
	if !reflect.DeepEqual(flat, asc) {
		t.Fatalf("tied scores ranked %v; want ascending ids %v", flat, asc)
	}
	// An example listing the neighbours by descending id whose true order
	// is ascending id: the router's order gets its whole top y% right, an
	// order that left ties as listed none of it.
	ex := RankExample{Qi: 0, Node: 0, Neighbors: make([]int, len(asc)), Ranks: make([]int, len(asc))}
	for j := range asc {
		ex.Neighbors[j], ex.Ranks[j] = asc[len(asc)-1-j], len(asc)-1-j
	}
	if acc := r.RankAccuracy(f.db, f.table, []RankExample{ex}); acc != 1 {
		t.Fatalf("RankAccuracy on tied scores = %v; want 1 (ties rank by id, as in the router)", acc)
	}
}

func TestMembershipTrainingSetDownsamples(t *testing.T) {
	f := newFixture(t, 0.003, 6)
	exs := BuildMembershipTrainingSet(f.table, f.gamma, 2, 9)
	var pos, neg int
	for _, ex := range exs {
		if ex.InNQ != (f.table.D[ex.Qi][ex.G] <= f.gamma) {
			t.Fatalf("mislabeled example")
		}
		if ex.InNQ {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 {
		t.Fatal("no positives")
	}
	if neg > 2*pos {
		t.Fatalf("downsampling failed: %d neg vs %d pos", neg, pos)
	}
}

func TestNeighborhoodModelLearnsMembership(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode: trains the neighborhood classifier to convergence")
	}
	f := newFixture(t, 0.003, 8)
	cfg := Config{Dim: 8, GammaStar: f.gamma, Seed: 3}
	m := NewNeighborhoodModel(cfg, f.store)
	exs := BuildMembershipTrainingSet(f.table, f.gamma, 2, 9)
	if len(exs) > 200 {
		exs = exs[:200]
	}
	if err := m.Train(f.db, f.table, exs, TrainOptions{Epochs: 5, LR: 0.01}); err != nil {
		t.Fatalf("Train: %v", err)
	}
	// Training accuracy on the (downsampled) set should beat chance.
	correct := 0
	for _, ex := range exs {
		if m.Predict(f.db[ex.G], f.table.Queries[ex.Qi]) == ex.InNQ {
			correct++
		}
	}
	acc := float64(correct) / float64(len(exs))
	if acc < 0.6 {
		t.Fatalf("membership accuracy %.3f < 0.6", acc)
	}
	t.Logf("membership training accuracy %.3f", acc)
	prec, avg := m.Precision(f.db, f.table, f.gamma)
	t.Logf("precision %.3f, avg predicted |N̂_Q| %.1f", prec, avg)
}

func TestClusterModelPipeline(t *testing.T) {
	f := newFixture(t, 0.003, 8)
	emb := cluster.NewFeatureEmbedder(f.db)
	points := make([][]float64, len(f.db))
	for i, g := range f.db {
		points[i] = emb.Embed(g)
	}
	km, err := cluster.FitKMeans(points, 6, 30, 4)
	if err != nil {
		t.Fatalf("FitKMeans: %v", err)
	}
	cfg := Config{Dim: 8, GammaStar: f.gamma, Seed: 5}
	mc := NewClusterModel(cfg, emb, km)

	exs := BuildClusterTrainingSet(f.table, km, f.gamma)
	if len(exs) != len(f.queries) {
		t.Fatalf("%d cluster examples for %d queries", len(exs), len(f.queries))
	}
	// Intersections sum to |N_Q|.
	for qi, ex := range exs {
		want := 0.0
		for _, d := range f.table.D[qi] {
			if d <= f.gamma {
				want++
			}
		}
		got := 0.0
		for _, v := range ex.Intersections {
			got += v
		}
		if got != want {
			t.Fatalf("query %d: intersections sum %v != |N_Q| %v", qi, got, want)
		}
	}
	if err := mc.Train(f.table, exs, TrainOptions{Epochs: 30, LR: 0.01}); err != nil {
		t.Fatalf("Train: %v", err)
	}
	// Predict is the training path's forward, bit for bit.
	acts := make([]float64, mc.head.Acts())
	for _, q := range f.queries[:3] {
		qemb := emb.Embed(q)
		for c, got := range mc.Predict(q) {
			if want := mc.head.Forward(acts, mc.features(nil, c, qemb))[0]; got != want {
				t.Fatalf("Predict[%d] = %v; training path %v", c, got, want)
			}
		}
	}
	// The trained model should usually put the best cluster (largest true
	// intersection) into its predicted top half.
	hits := 0
	for qi, q := range f.queries {
		bestTrue, bestVal := 0, -1.0
		for c, v := range exs[qi].Intersections {
			if v > bestVal {
				bestTrue, bestVal = c, v
			}
		}
		for _, c := range mc.TopClusters(q, km.K()/2) {
			if c == bestTrue {
				hits++
				break
			}
		}
	}
	if hits*2 < len(f.queries) {
		t.Fatalf("M_c top-half hit rate %d/%d", hits, len(f.queries))
	}
	t.Logf("M_c top-half hit rate %d/%d", hits, len(f.queries))
}

func TestInitialSelectorEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode: trains the initial selector end to end")
	}
	f := newFixture(t, 0.003, 10)
	emb := cluster.NewFeatureEmbedder(f.db)
	points := make([][]float64, len(f.db))
	for i, g := range f.db {
		points[i] = emb.Embed(g)
	}
	km, err := cluster.FitKMeans(points, 6, 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dim: 8, GammaStar: f.gamma, Seed: 6}
	mnh := NewNeighborhoodModel(cfg, f.store)
	mc := NewClusterModel(cfg, emb, km)
	mexs := BuildMembershipTrainingSet(f.table, f.gamma, 2, 9)
	if len(mexs) > 150 {
		mexs = mexs[:150]
	}
	if err := mnh.Train(f.db, f.table, mexs, TrainOptions{Epochs: 4, LR: 0.01}); err != nil {
		t.Fatal(err)
	}
	if err := mc.Train(f.table, BuildClusterTrainingSet(f.table, km, f.gamma), TrainOptions{Epochs: 20, LR: 0.01}); err != nil {
		t.Fatal(err)
	}

	preds := 0
	sel := &InitialSelector{Mnh: mnh, Mc: mc, Seed: 8, Predictions: &preds}
	q := f.queries[len(f.queries)-1]
	cache := pg.NewDistCache(f.metric, f.db, q)
	entry := sel.Select(context.Background(), q, cache)
	if entry < 0 || entry >= len(f.db) {
		t.Fatalf("entry out of range: %d", entry)
	}
	if cache.NDC() > 4 {
		t.Fatalf("selector charged %d NDC; want <= samples", cache.NDC())
	}
	if preds <= km.K() {
		t.Fatalf("prediction count %d not accumulated", preds)
	}
	// The cluster pruning must beat the O(|D|) basic design.
	if preds >= len(f.db)+km.K() {
		t.Fatalf("selector predicted over the whole database: %d >= %d", preds, len(f.db))
	}
}
