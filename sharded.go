package lan

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/obs"
	"github.com/lansearch/lan/internal/order"
)

// ShardedIndex searches a database split into independently indexed
// shards, the approach the paper uses to reach million-graph scale
// (Sec. VII-D) and names as future work for distribution: each shard is a
// complete LAN index, queries fan out to all shards (in parallel here,
// sequentially in the paper's single-machine protocol) and the per-shard
// answers are merged by distance.
type ShardedIndex struct {
	shards []*Index
	// offsets[i] is the global id of shard i's graph 0.
	offsets []int
	total   int
	// parallel bounds concurrent shard searches (0 = GOMAXPROCS).
	parallel int
}

// ShardedOptions configure BuildSharded.
type ShardedOptions struct {
	// ShardSize is the target number of graphs per shard (default 1024).
	ShardSize int
	// TrainPerShard is the number of training queries sampled per shard
	// from the provided workload (default: workload size / #shards,
	// minimum 8).
	TrainPerShard int
	// Index options applied to every shard (Seed is offset per shard).
	Options Options
	// Parallel controls concurrent shard searches (default GOMAXPROCS).
	Parallel int
}

// BuildSharded splits db into contiguous shards and builds one LAN index
// per shard. The training workload is shared: each shard trains on the
// queries whose nearest member lies in that shard plus a sample of the
// rest, which in practice is approximated by reusing the whole workload
// per shard (training cost stays bounded by the per-shard caps).
func BuildSharded(db graph.Database, trainQueries []*graph.Graph, so ShardedOptions) (*ShardedIndex, error) {
	if err := db.Validate(); err != nil {
		return nil, fmt.Errorf("lan: %w", err)
	}
	size := so.ShardSize
	if size <= 0 {
		size = 1024
	}
	if size > len(db) {
		size = len(db)
	}
	s := &ShardedIndex{total: len(db), parallel: so.Parallel}
	for start := 0; start < len(db); start += size {
		end := start + size
		if end > len(db) {
			end = len(db)
		}
		part := make([]*graph.Graph, 0, end-start)
		for _, g := range db[start:end] {
			part = append(part, g.Clone())
		}
		shardDB := graph.NewDatabase(part)
		opts := so.Options
		opts.Seed += int64(start)
		idx, err := Build(shardDB, trainQueries, opts)
		if err != nil {
			return nil, fmt.Errorf("lan: shard at %d: %w", start, err)
		}
		s.shards = append(s.shards, idx)
		s.offsets = append(s.offsets, start)
	}
	return s, nil
}

// Len returns the total number of live (searchable) graphs across
// shards; deletes shrink it. The global id space never shrinks.
func (s *ShardedIndex) Len() int {
	n := 0
	for _, shard := range s.shards {
		n += shard.Len()
	}
	return n
}

// Shards returns the number of shards.
func (s *ShardedIndex) Shards() int { return len(s.shards) }

// shardOf maps a global id to its shard and the local id within it.
func (s *ShardedIndex) shardOf(globalID int) (int, int, error) {
	if globalID < 0 || globalID >= s.total {
		return 0, 0, fmt.Errorf("lan: no graph with id %d", globalID)
	}
	for i := len(s.offsets) - 1; i >= 0; i-- {
		if globalID >= s.offsets[i] {
			return i, globalID - s.offsets[i], nil
		}
	}
	return 0, 0, fmt.Errorf("lan: no graph with id %d", globalID)
}

// Delete tombstones the graph with the given global id in its shard.
// A shard whose members are all deleted keeps serving searches — the
// fan-out skips it (zero results) instead of erroring — so churn can
// drain any shard completely.
func (s *ShardedIndex) Delete(globalID int) error {
	shard, local, err := s.shardOf(globalID)
	if err != nil {
		return err
	}
	return s.shards[shard].Delete(local)
}

// Epoch sums the shard epochs: 0 for a never-mutated sharded index,
// strictly increasing with every applied write, usable as a cache
// invalidation key exactly like Index.Epoch.
func (s *ShardedIndex) Epoch() uint64 {
	var e uint64
	for _, shard := range s.shards {
		e += shard.Epoch()
	}
	return e
}

// Close stops every shard's background optimizer (no-ops for shards
// that never received writes).
func (s *ShardedIndex) Close() error {
	var first error
	for _, shard := range s.shards {
		if err := shard.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Search fans the query out to every shard (in parallel) and merges the
// per-shard k-ANN answers into a global top-k with global graph ids.
// The returned stats aggregate all shards (NDC sums; times are the
// slowest shard's, matching wall-clock behavior).
func (s *ShardedIndex) Search(q *graph.Graph, so SearchOptions) ([]Result, Stats, error) {
	return s.SearchContext(context.Background(), q, so)
}

// SearchContext is Search with cancellation. The context is threaded into
// every per-shard search; the first shard to fail cancels the remaining
// fan-out, and its error — annotated with the failing shard's id — is
// returned after all shard goroutines have drained (no goroutine outlives
// the call). When the caller's own context expires, every shard reports
// the cancellation and the returned error wraps ctx.Err().
func (s *ShardedIndex) SearchContext(ctx context.Context, q *graph.Graph, so SearchOptions) ([]Result, Stats, error) {
	if q == nil || so.K <= 0 {
		return nil, Stats{}, fmt.Errorf("lan: need a query graph and K > 0")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type shardOut struct {
		res   []Result
		stats Stats
	}
	outs := make([]shardOut, len(s.shards))
	// With tracing on, each shard records into its own child trace (no
	// cross-goroutine contention on the parent); the children are attached
	// in shard order below, so the merged trace is deterministic.
	parent := obs.From(ctx)
	var children []*obs.Trace
	if parent != nil {
		children = make([]*obs.Trace, len(s.shards))
		for i := range children {
			children[i] = obs.NewTrace(fmt.Sprintf("shard-%d", i))
		}
	}
	par := s.parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	var (
		sem      = make(chan struct{}, par)
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for i := range s.shards {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			sctx := ctx
			if children != nil {
				sctx = obs.With(ctx, children[i])
			}
			res, stats, err := s.shards[i].SearchContext(sctx, q, so)
			if err != nil {
				// Record the first failure with its shard id and abort the
				// remaining fan-out; later cancellation errors from sibling
				// shards are consequences, not causes, and are dropped.
				errMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("lan: shard %d/%d: %w", i, len(s.shards), err)
					cancel()
				}
				errMu.Unlock()
				return
			}
			outs[i] = shardOut{res, stats}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, Stats{}, firstErr
	}
	for _, c := range children {
		parent.AddShard(c)
	}

	var merged []Result
	var agg Stats
	for i, o := range outs {
		for _, r := range o.res {
			merged = append(merged, Result{ID: r.ID + s.offsets[i], Dist: r.Dist})
		}
		agg.NDC += o.stats.NDC
		agg.InitNDC += o.stats.InitNDC
		agg.RouteNDC += o.stats.RouteNDC
		agg.Explored += o.stats.Explored
		agg.RankerCalls += o.stats.RankerCalls
		agg.ISPredictions += o.stats.ISPredictions
		agg.BatchesOpened += o.stats.BatchesOpened
		agg.GammaSteps += o.stats.GammaSteps
		agg.RankedNeighbors += o.stats.RankedNeighbors
		agg.OpenedNeighbors += o.stats.OpenedNeighbors
		agg.DistCacheHits += o.stats.DistCacheHits
		agg.DistTime += o.stats.DistTime
		agg.ModelTime += o.stats.ModelTime
		if o.stats.InitTime > agg.InitTime {
			agg.InitTime = o.stats.InitTime
		}
		if o.stats.RouteTime > agg.RouteTime {
			agg.RouteTime = o.stats.RouteTime
		}
		if o.stats.Total > agg.Total {
			agg.Total = o.stats.Total
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		return order.ByDistThenID(merged[i].Dist, merged[i].ID, merged[j].Dist, merged[j].ID)
	})
	if len(merged) > so.K {
		merged = merged[:so.K]
	}
	parent.SetConfig(so.Initial.String(), so.Routing.String(), so.K, so.Beam)
	parent.Finalize(agg.NDC, len(merged), agg.Total)
	return merged, agg, nil
}
