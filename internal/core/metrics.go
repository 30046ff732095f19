package core

import (
	"time"

	"github.com/lansearch/lan/internal/obs"
)

// recordQuery folds one successful query's stats into the process-wide
// registry (obs.Default()). Everything here is a handful of atomic adds;
// it runs on the query hot path and must stay allocation-free.
func recordQuery(stats *QueryStats) {
	m := obs.Query()
	m.Queries.Inc()
	m.NDCInitial.Add(uint64(stats.InitNDC))
	m.NDCRouting.Add(uint64(stats.RouteNDC))
	if stats.RankedNeighbors > 0 {
		m.PruningRatio.Observe(stats.PruneRate())
	}
	if stats.GammaSteps > 0 {
		m.GammaSteps.Observe(float64(stats.GammaSteps))
	}
	m.BatchesOpened.Add(uint64(stats.BatchesOpened))
	m.RankerCalls.Add(uint64(stats.RankerCalls))
	m.RankerInferences.Add(uint64(stats.RankerInferences))
	m.RankerMemoHits.Add(uint64(stats.RankerMemoHits))
	m.DistCacheHits.Add(uint64(stats.DistCacheHits))
	// Every distance computation is by definition a memo miss.
	m.DistCacheMisses.Add(uint64(stats.NDC))
}

// recordBuild folds one completed build into the registry.
func recordBuild(dbSize int, elapsed time.Duration) {
	m := obs.Build()
	m.Builds.Inc()
	m.Seconds.Observe(elapsed.Seconds())
	m.IndexGraphs.Set(int64(dbSize))
}
