package obs

import (
	"sync"

	"github.com/lansearch/lan/ged"
)

// QueryMetrics is the engine-level query-cost family set, shared by every
// binary that runs searches (lan-bench, lan-serve, lan-search). The
// fields are resolved once at registration, so recording is a handful of
// atomic adds per query.
type QueryMetrics struct {
	// Queries counts completed (non-errored) searches.
	Queries *Counter
	// NDC* split the paper's primary cost metric — distance computations —
	// by pipeline stage: initial-node selection, np_route/beam batch
	// opens, and l2route's GED verification.
	NDCInitial *Counter
	NDCRouting *Counter
	NDCVerify  *Counter
	// PruningRatio is the fraction of the neighbors handed to the ranker
	// that were never opened (np_route's whole point); neighbors whose
	// distance a search already knew are not handed over.
	PruningRatio *Histogram
	// GammaSteps is the length of the γ-threshold trajectory (np_route
	// supersteps per query).
	GammaSteps *Histogram
	// BatchesOpened and RankerCalls meter the learned ranker's work.
	BatchesOpened *Counter
	RankerCalls   *Counter
	// RankerInferences and RankerMemoHits split M_rk's neighbour scores:
	// cross-graph inferences run against scores served from the
	// per-search memo; hits/(hits+inferences) is the share of scores that
	// skipped the network.
	RankerInferences *Counter
	RankerMemoHits   *Counter
	// DistCacheHits/Misses meter the per-query distance memo; the hit
	// ratio is hits/(hits+misses).
	DistCacheHits   *Counter
	DistCacheMisses *Counter
}

var (
	queryOnce    sync.Once
	queryMetrics *QueryMetrics
)

// Query returns the process-wide query-cost metrics, registering them on
// the default registry on first use.
func Query() *QueryMetrics {
	queryOnce.Do(func() {
		r := Default()
		queryMetrics = &QueryMetrics{
			Queries: r.Counter("lan_query_searches_total",
				"Completed k-ANN searches."),
			NDCInitial: r.Counter("lan_query_ndc_initial_total",
				"Distance computations spent in initial-node selection."),
			NDCRouting: r.Counter("lan_query_ndc_routing_total",
				"Distance computations spent opening neighbor batches during routing."),
			NDCVerify: r.Counter("lan_query_ndc_verify_total",
				"Distance computations spent in l2route GED verification."),
			PruningRatio: r.Histogram("lan_query_pruning_ratio",
				"Per-query fraction of ranked neighbors whose distance was pruned.",
				LinBuckets(0.1, 0.1, 9)),
			GammaSteps: r.Histogram("lan_route_gamma_steps",
				"Per-query length of the γ-threshold trajectory (np_route supersteps).",
				ExpBuckets(1, 2, 10)),
			BatchesOpened: r.Counter("lan_route_batches_opened_total",
				"Neighbor batches whose distances were computed during routing."),
			RankerCalls: r.Counter("lan_route_ranker_calls_total",
				"Nodes ranked during routing (learned or oracle), one per explored node; a node whose neighbors all had known distances counts without invoking the ranker."),
			RankerInferences: r.Counter("lan_ranker_inferences_total",
				"Cross-graph inferences M_rk ran, each with the cross columns of its heads' first layer: one per distinct neighbor scored in a search."),
			RankerMemoHits: r.Counter("lan_ranker_memo_hits_total",
				"M_rk neighbor scores resumed from the per-search memo: neither the cross-graph network nor the cross two thirds of the heads' first layer ran."),
			DistCacheHits: r.Counter("lan_distcache_hits_total",
				"Per-query distance-memo lookups served without a GED call."),
			DistCacheMisses: r.Counter("lan_distcache_misses_total",
				"Per-query distance-memo lookups that paid a GED call."),
		}
		r.CounterFunc("lan_ged_arena_reused_total",
			"GED kernel invocations served by a pooled pair arena.",
			func() uint64 { reused, _ := ged.ArenaStats(); return reused })
		r.CounterFunc("lan_ged_arena_allocated_total",
			"GED pair arenas allocated because the pool was empty.",
			func() uint64 { _, allocated := ged.ArenaStats(); return allocated })
		r.CounterFunc("lan_ged_astar_finished_total",
			"Ensemble distances whose budgeted A* finished: the distance is exact.",
			func() uint64 { finished, _ := ged.AStarStats(); return finished })
		r.CounterFunc("lan_ged_astar_exhausted_total",
			"Ensemble distances whose A* ran out of budget and fell back to the approximations.",
			func() uint64 { _, exhausted := ged.AStarStats(); return exhausted })
		r.CounterVecFunc("lan_ged_ensemble_best_total",
			"Ensemble distances that fell back to the approximations, by the member whose bound was returned (the first in protocol order among equals).",
			"member", []string{"vj", "hungarian", "beam"},
			func(i int) uint64 {
				vj, hungarian, beam := ged.EnsembleStats()
				return [...]uint64{vj, hungarian, beam}[i]
			})
	})
	return queryMetrics
}

// BuildMetrics meters offline index construction.
type BuildMetrics struct {
	Builds *Counter
	// Seconds observes one value per completed build.
	Seconds *Histogram
	// IndexGraphs is the database size of the most recent build.
	IndexGraphs *Gauge
}

var (
	buildOnce    sync.Once
	buildMetrics *BuildMetrics
)

// Build returns the process-wide build metrics, registering them on the
// default registry on first use.
func Build() *BuildMetrics {
	buildOnce.Do(func() {
		r := Default()
		buildMetrics = &BuildMetrics{
			Builds: r.Counter("lan_build_runs_total",
				"Completed index+model builds."),
			Seconds: r.Histogram("lan_build_seconds",
				"Wall time of one index+model build.",
				ExpBuckets(0.01, 4, 12)),
			IndexGraphs: r.Gauge("lan_build_index_graphs",
				"Database size of the most recent build."),
		}
	})
	return buildMetrics
}
