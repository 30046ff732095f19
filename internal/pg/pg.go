// Package pg implements proximity-graph indexes over a graph database in
// the GED metric space: a flat navigable-small-world graph (the PG the
// paper routes on), the hierarchical HNSW baseline with its descent-based
// initial node selection, and the candidate pool W that routing
// (internal/route) keeps, with the paper's exact tie-breaking rules.
package pg

import (
	"fmt"
	"sort"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/order"
)

// PG is a flat proximity graph: node i is db[i]; Adj[i] lists its
// neighbors sorted by id.
type PG struct {
	DB  graph.Database
	Adj [][]int
	// Dead marks soft-deleted nodes (validity-epoch tombstones of the
	// mutable index). Dead nodes stay in the adjacency so routing can
	// travel through them, but they are filtered out of results. A nil
	// Dead — every index built by Build — filters nothing.
	Dead []bool
}

// Neighbors returns the PG neighbors of node id.
func (p *PG) Neighbors(id int) []int { return p.Adj[id] }

// Len returns the number of indexed graphs.
func (p *PG) Len() int { return len(p.DB) }

// Validate checks index invariants: symmetric sorted adjacency within
// range.
func (p *PG) Validate() error {
	if len(p.Adj) != len(p.DB) {
		return fmt.Errorf("pg: %d adjacency lists for %d graphs", len(p.Adj), len(p.DB))
	}
	for u, ns := range p.Adj {
		for i, v := range ns {
			if v < 0 || v >= len(p.DB) || v == u {
				return fmt.Errorf("pg: node %d has bad neighbor %d", u, v)
			}
			if i > 0 && ns[i-1] >= v {
				return fmt.Errorf("pg: adjacency of %d not strictly sorted", u)
			}
			if !containsSorted(p.Adj[v], u) {
				return fmt.Errorf("pg: edge (%d,%d) not symmetric", u, v)
			}
		}
	}
	return nil
}

func containsSorted(ns []int, v int) bool {
	i := sort.SearchInts(ns, v)
	return i < len(ns) && ns[i] == v
}

// DistCache evaluates distances from one query to database graphs exactly
// once, counting the number of distance computations (NDC). A fresh cache
// is used per query; it is not safe for concurrent use.
type DistCache struct {
	Metric ged.Metric
	Q      *graph.Graph
	DB     graph.Database

	memo map[int]float64
	ndc  int
	hits int
}

// NewDistCache returns a cache for distances between q and members of db.
func NewDistCache(metric ged.Metric, db graph.Database, q *graph.Graph) *DistCache {
	return &DistCache{Metric: metric, Q: q, DB: db, memo: make(map[int]float64)}
}

// Dist returns d(Q, db[id]), computing it at most once.
func (c *DistCache) Dist(id int) float64 {
	if d, ok := c.memo[id]; ok {
		c.hits++
		return d
	}
	d := c.Metric.Distance(c.DB[id], c.Q)
	c.memo[id] = d
	c.ndc++
	return d
}

// Prefetch computes the distances to ids that are not yet memoized,
// fanning the GED evaluations across pool (when non-nil), then merging the
// results into the memo in the ids' order. Because Dist is a pure function
// of (Q, id), prefetching then reading is indistinguishable from
// sequential evaluation: the memo contents and the NDC count come out
// identical. The cache itself stays single-threaded — only the metric
// calls run concurrently.
func (c *DistCache) Prefetch(ids []int, pool *WorkerPool) {
	var pending []int
	for _, id := range ids {
		if _, ok := c.memo[id]; ok {
			continue
		}
		dup := false
		for _, p := range pending {
			if p == id {
				dup = true
				break
			}
		}
		if !dup {
			pending = append(pending, id)
		}
	}
	if len(pending) == 0 {
		return
	}
	if pool == nil || len(pending) < 2 {
		for _, id := range pending {
			d := c.Metric.Distance(c.DB[id], c.Q)
			c.memo[id] = d
			c.ndc++
		}
		return
	}
	out := make([]float64, len(pending))
	pool.Run(len(pending), func(i int) {
		out[i] = c.Metric.Distance(c.DB[pending[i]], c.Q)
	})
	for i, id := range pending {
		c.memo[id] = out[i]
		c.ndc++
	}
}

// Known reports whether the distance to id has already been computed.
func (c *DistCache) Known(id int) bool {
	_, ok := c.memo[id]
	return ok
}

// Lookup returns the memoized distance to id without computing, counting
// or hit-metering anything. Observability code (trace recording) reads
// distances through it so that tracing cannot perturb NDC or the memo's
// hit accounting.
func (c *DistCache) Lookup(id int) (float64, bool) {
	d, ok := c.memo[id]
	return d, ok
}

// NDC returns the number of distance computations performed so far.
func (c *DistCache) NDC() int { return c.ndc }

// Hits returns the number of Dist calls served from the memo.
func (c *DistCache) Hits() int { return c.hits }

// Result is a database graph and its distance to the query: an entry of
// the pool W, and one k-ANN answer.
type Result struct {
	ID   int
	Dist float64
}

// topK returns the k best of cands (ascending distance, ties by id).
func topK(cands []Result, k int) []Result {
	sorted := make([]Result, len(cands)) // never nil: an empty answer encodes as []
	copy(sorted, cands)
	sort.Slice(sorted, func(i, j int) bool {
		return order.ByDistThenID(sorted[i].Dist, sorted[i].ID, sorted[j].Dist, sorted[j].ID)
	})
	return sorted[:min(k, len(sorted))]
}
