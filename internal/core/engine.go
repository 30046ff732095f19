// Package core assembles the complete LAN system (Fig. 3 of the paper):
// the proximity-graph index, the learned neighbor-ranking model M_rk, the
// initial-node models M_nh and M_c, and the np_route query pipeline. It is
// the implementation behind the public lan package and the experiment
// harness; the knobs it exposes (initial-selection strategy, routing
// strategy, CG acceleration) are exactly the axes the paper's figures
// vary.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/cg"
	"github.com/lansearch/lan/internal/cluster"
	"github.com/lansearch/lan/internal/models"
	"github.com/lansearch/lan/internal/obs"
	"github.com/lansearch/lan/internal/pg"
	"github.com/lansearch/lan/internal/route"
)

// Options configure an Engine build.
type Options struct {
	// Index construction. The insertion beam is pg's 2M.
	M           int        // PG degree parameter (default 8)
	BuildMetric ged.Metric // offline GED (default Hungarian)
	QueryMetric ged.Metric // online GED (default Hungarian)

	// Model shape: the paper's models.Layers GNN layers, y =
	// models.BatchPercent and MLP hidden width 2*Dim are constants.
	Dim int // embedding dim (default 16; the paper uses 128)
	// RawGNN switches off the compressed-GNN-graph acceleration of
	// Sec. VI: the models run on the raw graphs (the ablation of Figs. 10
	// and 11). The zero value is the paper's system.
	RawGNN bool

	// Neighborhood calibration (Sec. VII: gamma* covers the GammaKNN
	// nearest neighbors of 90 % of the training queries).
	GammaKNN int // default 20

	// Initial selection.
	Clusters int // KMeans k (default |D|/16, min 2)

	// Training.
	Train models.TrainOptions

	// Workers bounds the index-build worker pool, the distance-table and
	// node-embedding fan-outs, and with more than one lets Build train
	// M_rk beside M_nh and M_c (default runtime.NumCPU()). The built index,
	// models and embeddings are identical across worker counts.
	Workers int

	Seed int64
}

func (o *Options) defaults(dbSize int) {
	if o.M <= 0 {
		o.M = 8
	}
	if o.BuildMetric == nil {
		o.BuildMetric = ged.MetricFunc(ged.Hungarian)
	}
	if o.QueryMetric == nil {
		o.QueryMetric = ged.MetricFunc(ged.Hungarian)
	}
	if o.Dim <= 0 {
		o.Dim = 16
	}
	if o.GammaKNN <= 0 {
		o.GammaKNN = 20
	}
	if o.Clusters <= 0 {
		o.Clusters = dbSize / 16
		if o.Clusters < 2 {
			o.Clusters = 2
		}
	}
}

// Caps on the two shuffled training sets Build draws: M_rk's (training
// cost scales with it) and M_nh's.
const (
	maxRankExamples       = 512
	maxMembershipExamples = 2048
)

// InitialStrategy selects how the routing entry node is chosen.
type InitialStrategy int

// Initial-selection strategies of Fig. 7.
const (
	// LANIS is the paper's learned selection (M_c + M_nh + sampling).
	LANIS InitialStrategy = iota
	// HNSWIS descends the HNSW hierarchy.
	HNSWIS
	// RandIS picks a pseudo-random node (deterministic per query).
	RandIS
	// LANISBasic is Sec. V-B1's basic design: M_nh over the whole
	// database, no cluster pruning (the ablation of Fig. 7's footnote —
	// "always slower than the optimized design").
	LANISBasic
)

// String returns the strategy's wire name (the one lanserve's request
// parser and the trace/pprof labels use).
func (s InitialStrategy) String() string {
	switch s {
	case HNSWIS:
		return "hnsw"
	case RandIS:
		return "rand"
	case LANISBasic:
		return "lan_basic"
	default:
		return "lan"
	}
}

// RoutingStrategy selects the layer-0 routing algorithm.
type RoutingStrategy int

// Routing strategies of Fig. 6.
const (
	// LANRoute is np_route with the learned ranker M_rk.
	LANRoute RoutingStrategy = iota
	// BaselineRoute is Algorithm 1 (exhaustive neighbor exploration):
	// np_route with no ranker, every neighbor in one batch.
	BaselineRoute
	// OracleRoute is np_route with the oracle ranker: neighbors ordered
	// by Options.BuildMetric, uncharged. That is the query metric only
	// when the two metrics are the same; beside an ensemble query metric
	// and a cheap build metric the oracle ranks by the build metric.
	OracleRoute
)

// String returns the strategy's wire name.
func (s RoutingStrategy) String() string {
	switch s {
	case BaselineRoute:
		return "baseline"
	case OracleRoute:
		return "oracle"
	default:
		return "lan"
	}
}

// SearchOptions configure one query.
type SearchOptions struct {
	K       int
	Beam    int
	Initial InitialStrategy
	Routing RoutingStrategy
}

// QueryStats breaks down one query's cost (Fig. 11's accounting). Every
// routing strategy runs the same np_route loop and fills the same fields;
// BaselineRoute has no ranker, so its RankerCalls and M_rk tallies stay
// zero and it opens every neighbor it ranks, one batch per explored node
// (see TestSearchStatsConsistency). The oracle and M_rk are handed only
// the neighbors whose distance the query does not know yet (route.Stats):
// the known ones join the candidate pool free, and the neighbor tallies
// do not count them.
type QueryStats struct {
	NDC int
	// InitNDC/RouteNDC split NDC by pipeline stage: distance computations
	// paid during initial-node selection vs. during routing.
	InitNDC  int
	RouteNDC int
	Explored int
	// RankerCalls counts ranked nodes (one per explored node, whether or
	// not any neighbor was left unknown to rank), the same quantity for
	// the learned and the oracle ranker.
	RankerCalls   int
	ISPredictions int
	// RankerInferences and RankerMemoHits split M_rk's neighbour scores
	// (LANRoute only): cross-graph inferences run, one per distinct
	// neighbour, against scores of a neighbour already met from another
	// node, which resume from the per-search memo past the network and the
	// cross columns of the heads' first layer.
	RankerInferences int
	RankerMemoHits   int
	// BatchesOpened, GammaSteps and the neighbor tallies come from
	// np_route: opened batches, γ-trajectory length, and neighbors handed
	// to the ranker (or, without a ranker, batched) vs. opened (1 -
	// Opened/Ranked is the prune rate).
	BatchesOpened   int
	GammaSteps      int
	RankedNeighbors int
	OpenedNeighbors int
	// DistCacheHits counts distance lookups served from the per-query
	// memo without a GED call.
	DistCacheHits int
	// DistTime is wall time inside GED computations; ModelTime inside
	// GNN inference (ranking + initial selection); InitTime/RouteTime the
	// two pipeline stages; Total the whole query.
	DistTime  time.Duration
	ModelTime time.Duration
	InitTime  time.Duration
	RouteTime time.Duration
	Total     time.Duration
}

// PruneRate returns the fraction of the neighbors handed to the ranker
// that were never opened (0 when nothing was ranked).
func (s *QueryStats) PruneRate() float64 {
	if s.RankedNeighbors == 0 {
		return 0
	}
	return 1 - float64(s.OpenedNeighbors)/float64(s.RankedNeighbors)
}

// Engine is a fully built LAN system over one database.
type Engine struct {
	DB    graph.Database
	Index *pg.HNSW
	Opts  Options

	Store     *models.CGStore
	Mrk       *models.NeighborRanker
	Mnh       *models.NeighborhoodModel
	Mc        *models.ClusterModel
	GammaStar float64
}

// Build constructs the index, trains all three models on trainQueries and
// returns a ready Engine. Training requires at least a handful of queries;
// the heavy lifting (index construction, the distance table) is exactly
// the offline cost the paper describes.
//
// The build is a dependency graph: PG → distance table → γ* and the two
// training sets → {M_rk, node embeddings} beside {M_nh, k-means, M_c}.
// The two branches share no Params and no RNG (both shuffles are drawn
// before they start), so with Workers > 1 they run on two goroutines and
// the engine is bit-identical to a Workers = 1 build. A panic in the PG
// build, the distance table or on M_rk's branch comes back as an error
// naming the step, whether it was raised on the caller or on a helper of
// their pg.WorkerPool.
func Build(db graph.Database, trainQueries []*graph.Graph, opts Options) (*Engine, error) {
	if err := db.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(trainQueries) == 0 {
		return nil, fmt.Errorf("core: no training queries")
	}
	opts.defaults(len(db))
	buildStart := time.Now()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	var idx *pg.HNSW
	err := recovered("building the proximity graph", func() (err error) {
		idx, err = pg.Build(db, pg.BuildConfig{
			M: opts.M, Metric: opts.BuildMetric, Seed: opts.Seed, Workers: workers,
		})
		return err
	})
	if err != nil {
		return nil, err
	}

	var table *models.DistanceTable
	if err := recovered("distance table", func() error {
		table = models.ComputeDistanceTable(db, trainQueries, opts.QueryMetric, workers)
		return nil
	}); err != nil {
		return nil, err
	}
	// The paper's quantile: γ* covers the GammaKNN-NNs of 90 % of the
	// training queries.
	gammaStar := models.CalibrateGammaStar(table, opts.GammaKNN, 0.9)

	store := models.NewCGStore(db, !opts.RawGNN)
	mcfg := models.Config{Dim: opts.Dim, GammaStar: gammaStar, Seed: opts.Seed}

	e := &Engine{DB: db, Index: idx, Opts: opts, Store: store, GammaStar: gammaStar}

	// Both training sets are shuffled and capped: neighborhoods of all
	// training queries overlap heavily, and a bounded sample keeps offline
	// training time proportional to model size rather than |D| x |Q|. M_nh's
	// negatives are downsampled first.
	rankSet := models.BuildRankTrainingSet(idx.PG, table, gammaStar)
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x9e37))
	rng.Shuffle(len(rankSet), func(i, j int) { rankSet[i], rankSet[j] = rankSet[j], rankSet[i] })
	if len(rankSet) > maxRankExamples {
		rankSet = rankSet[:maxRankExamples]
	}
	memberSet := models.BuildMembershipTrainingSet(table, gammaStar, 2, opts.Seed)
	rng.Shuffle(len(memberSet), func(i, j int) { memberSet[i], memberSet[j] = memberSet[j], memberSet[i] })
	if len(memberSet) > maxMembershipExamples {
		memberSet = memberSet[:maxMembershipExamples]
	}

	// With Workers > 1 this branch runs on a goroutine of its own, where a
	// panic — the shape checks in mat panic by contract, and
	// Train.Logf is the caller's code — would kill the process instead of
	// unwinding into Build's caller. It fails the build instead, whatever
	// the worker count.
	trainRouting := func() error {
		return recovered("training M_rk", func() error {
			e.Mrk = models.NewNeighborRanker(mcfg, store)
			if len(rankSet) > 0 {
				if err := e.Mrk.Train(db, table, rankSet, opts.Train); err != nil {
					return err
				}
			}
			// Embed the whole database once so routing never pays the
			// current-node encoding at query time.
			e.Mrk.PrecomputeNodeEmbeddings(db, workers)
			return nil
		})
	}
	trainInitial := func() error {
		e.Mnh = models.NewNeighborhoodModel(mcfg, store)
		if len(memberSet) > 0 {
			if err := e.Mnh.Train(db, table, memberSet, opts.Train); err != nil {
				return err
			}
		}
		emb := cluster.NewFeatureEmbedder(db)
		points := make([][]float64, len(db))
		for i, g := range db {
			points[i] = emb.Embed(g)
		}
		km, err := cluster.FitKMeans(points, opts.Clusters, 40, opts.Seed)
		if err != nil {
			return err
		}
		e.Mc = models.NewClusterModel(mcfg, emb, km)
		return e.Mc.Train(table, models.BuildClusterTrainingSet(table, km, gammaStar), opts.Train)
	}
	routing := make(chan error, 1)
	if workers > 1 {
		go func() { routing <- trainRouting() }()
	} else {
		routing <- trainRouting()
	}
	err = trainInitial()
	if rerr := <-routing; rerr != nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	recordBuild(len(db), time.Since(buildStart))
	return e, nil
}

// recovered runs step and turns a panic inside it — raised on the caller,
// or raised again there by a pg.WorkerPool whose helper panicked — into an
// error naming what was being built.
func recovered(what string, step func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: %s: panic: %v\n%s", what, r, debug.Stack())
		}
	}()
	return step()
}

// Search answers one k-ANN query. A query pays its distances one call
// after another on the calling goroutine, and the context is checked
// before each of them — in initial selection and in routing alike — so an
// expired deadline or a canceled request stops the query within one GED
// call. On cancellation it returns ctx.Err() with the statistics
// accumulated so far (Total is still stamped, so the caller can meter
// abandoned work).
func (e *Engine) Search(ctx context.Context, q *graph.Graph, so SearchOptions) ([]pg.Result, QueryStats, error) {
	start := time.Now()
	if so.K <= 0 {
		so.K = 1
	}
	if so.Beam < so.K {
		so.Beam = so.K
	}
	trace := obs.From(ctx)
	trace.SetConfig(so.Initial.String(), so.Routing.String(), so.K, so.Beam)
	tm := obs.NewTimedMetric(e.Opts.QueryMetric)
	cache := pg.NewDistCache(tm, e.DB, q)
	var stats QueryStats
	if err := ctx.Err(); err != nil {
		stats.Total = time.Since(start)
		return nil, stats, err
	}

	initSpan := trace.StartSpan("initial")
	// The query's compressed GNN-graph and one inference workspace are
	// shared by every learned component this search touches: the selector
	// and each ranking call reuse one encoding instead of rebuilding it,
	// and draw their temporaries from slabs the first few calls have grown
	// instead of allocating. The workspace dies with the search: keeping
	// idle ones on a free list was measured (no faster on syn_hung, ~1 MB
	// more settled RSS behind lanserve) and left out.
	var (
		qcg *cg.Compressed
		ws  *cg.Workspace
	)
	if so.Initial == LANIS || so.Initial == LANISBasic || so.Routing == LANRoute {
		ws = cg.NewWorkspace()
		cgStart := time.Now()
		qcg = e.Store.Query(q)
		cgTime := time.Since(cgStart)
		stats.ModelTime += cgTime
		trace.RecordSpan("embed", cgStart, cgTime, 0, 1)
	}

	// Initial node.
	modelStart := time.Now()
	var distInModels time.Duration
	entry := 0
	switch so.Initial {
	case LANIS, LANISBasic:
		sel := &models.InitialSelector{
			Mnh: e.Mnh, Mc: e.Mc,
			Seed: e.Opts.Seed, Predictions: &stats.ISPredictions,
			Exhaustive: so.Initial == LANISBasic,
			QueryCG:    qcg,
			WS:         ws,
		}
		before := tm.Elapsed()
		entry = sel.Select(ctx, q, cache)
		distInModels = tm.Elapsed() - before
	case HNSWIS:
		entry = e.Index.EntryPoint(ctx, cache)
		distInModels = tm.Elapsed()
	case RandIS:
		entry = pseudoRandomEntry(q, len(e.DB))
	}
	// Every strategy can land on a compacted tombstone — cluster members
	// and the pseudo-random pick are not dead-filtered — and such a husk
	// is edgeless: routing seeded there would end with no live candidate
	// ever evaluated. M_c may also pick only empty clusters, leaving the
	// selector no candidate (-1). The HNSW entry is kept live and wired by
	// the write path (rescue on Compact), so fall back to it.
	if entry < 0 || len(e.Index.PG.Adj[entry]) == 0 {
		entry = e.Index.Entry
	}
	stats.ModelTime += time.Since(modelStart) - distInModels
	stats.InitNDC = cache.NDC()
	stats.InitTime = time.Since(start)
	trace.EndSpan(initSpan, stats.InitNDC)
	if err := ctx.Err(); err != nil {
		stats.NDC = cache.NDC()
		stats.DistTime = tm.Elapsed()
		stats.Total = time.Since(start)
		return nil, stats, err
	}

	// Routing.
	routeStart := time.Now()
	routeSpan := trace.StartSpan("routing")
	// The strategies differ only in the ranker: none (Algorithm 1), the
	// oracle, or M_rk. The route layer counts ranking invocations
	// (route.Stats.RankerCalls), the same quantity for the oracle and M_rk;
	// the model ranker counts what they cost it: inferences and memo hits.
	var (
		ranker route.Ranker
		scored models.RankerStats
	)
	switch so.Routing {
	case BaselineRoute: // nil ranker
	case OracleRoute:
		ranker = &route.OracleRanker{
			Cache: cache, BatchPercent: models.BatchPercent,
			// Rank with the cheap build metric so the oracle's
			// hypothetically-free ranking does not pay the query metric.
			RankMetric: e.Opts.BuildMetric,
		}
	default: // LANRoute
		inner := e.Mrk.Ranker(ws, e.DB, q, qcg, &scored)
		ranker = route.RankerFunc(func(node int, neighbors []int, d float64) [][]int {
			rs := time.Now()
			b := inner.Batches(node, neighbors, d)
			rd := time.Since(rs)
			stats.ModelTime += rd
			trace.RecordSpan("embed", rs, rd, 0, len(neighbors))
			return b
		})
	}
	res, s, err := route.Route(ctx, e.Index.PG, cache, ranker, entry, route.Config{K: so.K, Beam: so.Beam})
	fillRouteStats(&stats, s)
	stats.RankerInferences, stats.RankerMemoHits = scored.Inferences, scored.MemoHits
	stats.NDC = cache.NDC()
	stats.RouteNDC = stats.NDC - stats.InitNDC
	stats.RouteTime = time.Since(routeStart)
	stats.DistCacheHits = cache.Hits()
	trace.EndSpan(routeSpan, stats.RouteNDC)
	stats.DistTime = tm.Elapsed()
	stats.Total = time.Since(start)
	trace.Finalize(stats.NDC, len(res), stats.Total)
	if err != nil {
		return nil, stats, err
	}
	recordQuery(&stats)
	return res, stats, nil
}

// fillRouteStats copies np_route's effort counters into the query stats.
func fillRouteStats(stats *QueryStats, s route.Stats) {
	stats.Explored = s.Explored
	stats.RankerCalls = s.RankerCalls
	stats.BatchesOpened = s.BatchesOpened
	stats.GammaSteps = s.GammaSteps
	stats.RankedNeighbors = s.Ranked
	stats.OpenedNeighbors = s.Opened
}

// pseudoRandomEntry derives a deterministic pseudo-random entry node from
// the query's structure (Rand_IS must not depend on mutable state so runs
// are reproducible).
func pseudoRandomEntry(q *graph.Graph, n int) int {
	h := uint64(2166136261)
	h = h*16777619 ^ uint64(q.N())
	h = h*16777619 ^ uint64(q.M())
	for u := 0; u < q.N(); u++ {
		for _, c := range q.Label(u) {
			h = h*16777619 ^ uint64(c)
		}
	}
	return int(h % uint64(n))
}
