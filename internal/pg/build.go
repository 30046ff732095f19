package pg

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/order"
)

// BuildConfig controls proximity-graph construction.
type BuildConfig struct {
	// M is the target out-degree on upper layers; layer 0 allows 2M.
	M int
	// EfConstruction is the candidate-beam width during insertion.
	EfConstruction int
	// Metric computes GED during construction (typically an approximation
	// such as ged.Hungarian — construction is offline).
	Metric ged.Metric
	// Seed drives the level assignment and connectivity-repair sampling.
	Seed int64
	// Workers bounds the goroutines evaluating candidate-beam GED
	// distances concurrently (default runtime.NumCPU(); 1 disables the
	// pool). The built index is bit-identical across worker counts:
	// distances are pure functions prefetched in parallel but merged in
	// fixed candidate order, and all RNG-driven decisions stay on the
	// inserting goroutine.
	Workers int
}

func (c *BuildConfig) defaults() {
	if c.M <= 0 {
		c.M = 8
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = 2 * c.M
	}
	if c.Metric == nil {
		c.Metric = ged.MetricFunc(ged.Hungarian)
	}
}

// HNSW is a hierarchical navigable small world index: PG holds the dense
// layer 0 (the proximity graph LAN routes on); Upper holds the sparse
// navigation layers used by the HNSW baseline and its initial-node
// selection.
type HNSW struct {
	PG *PG
	// Upper[l-1] is the adjacency of layer l (l >= 1).
	Upper []map[int][]int
	// Level[i] is the top layer of node i.
	Level []int
	// Entry is the entry node at the top layer.
	Entry int

	m int
	// efConstruction is Insert's candidate-beam width: the build's
	// BuildConfig.EfConstruction, or what Arm gives a reopened index.
	efConstruction int
	buildMetric    *memo
	// pool fans Insert's distance prefetches out; nil outside Build (and
	// when Workers == 1), making every prefetch sequential.
	pool *WorkerPool
}

// MaxLevel returns the highest populated layer.
func (h *HNSW) MaxLevel() int { return len(h.Upper) }

// Build constructs an HNSW index over db by inserting its graphs in id
// order through Insert, the same copy-on-write insertion the write path
// uses, each at a level drawn from the build's RNG. Distances between
// database members are memoized, so the build performs each pairwise GED
// at most once. Candidate-beam distances are evaluated across cfg.Workers
// goroutines; the result is bit-identical to a Workers=1 build.
func Build(db graph.Database, cfg BuildConfig) (*HNSW, error) {
	cfg.defaults()
	if err := db.Validate(); err != nil {
		return nil, fmt.Errorf("pg: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	mL := 1 / math.Log(float64(cfg.M))

	h := &HNSW{
		PG:             &PG{DB: db, Adj: make([][]int, len(db))},
		Level:          make([]int, len(db)),
		m:              cfg.M,
		efConstruction: cfg.EfConstruction,
		buildMetric:    newMemo(cfg.Metric),
		pool:           NewWorkerPool(cfg.Workers),
	}
	defer func() {
		h.pool.Close()
		h.pool = nil
	}()

	for i := range db {
		h.Insert(i, int(-math.Log(1-rng.Float64())*mL))
	}
	h.repairConnectivity(rng)
	return h, nil
}

// repairConnectivity stitches the base layer into one component. Degree
// pruning of an undirected PG can sever sparse clusters (the original
// HNSW tolerates this by keeping directed edges); since routing must be
// able to reach every graph, we repeatedly join the smallest component to
// the rest through (approximately) its closest cross pair, sampling
// candidates to bound the offline cost. Repair edges bypass the degree
// cap.
func (h *HNSW) repairConnectivity(rng *rand.Rand) {
	const sampleCap = 32
	for {
		comps := h.baseComponents()
		if len(comps) <= 1 {
			return
		}
		// Smallest component joins the others.
		smallest := 0
		for i, c := range comps {
			if len(c) < len(comps[smallest]) {
				smallest = i
			}
		}
		var rest []int
		for i, c := range comps {
			if i != smallest {
				rest = append(rest, c...)
			}
		}
		from := sampleNodes(comps[smallest], sampleCap, rng)
		to := sampleNodes(rest, sampleCap, rng)
		bu, bv, bd := -1, -1, 0.0
		for _, u := range from {
			c := NewDistCache(h.buildMetric, h.PG.DB, h.PG.DB[u])
			c.Prefetch(to, h.pool)
			for _, v := range to {
				if d := c.Dist(v); bu == -1 || d < bd {
					bu, bv, bd = u, v, d
				}
			}
		}
		h.PG.Adj[bu] = insertSorted(h.PG.Adj[bu], bv)
		h.PG.Adj[bv] = insertSorted(h.PG.Adj[bv], bu)
	}
}

// baseComponents returns the connected components of layer 0.
func (h *HNSW) baseComponents() [][]int {
	n := len(h.PG.DB)
	seen := make([]bool, n)
	var comps [][]int
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		comp := []int{s}
		seen[s] = true
		for i := 0; i < len(comp); i++ {
			for _, v := range h.PG.Adj[comp[i]] {
				if !seen[v] {
					seen[v] = true
					comp = append(comp, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

func sampleNodes(nodes []int, cap int, rng *rand.Rand) []int {
	if len(nodes) <= cap {
		return nodes
	}
	out := append([]int(nil), nodes...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:cap]
}

func insertSorted(ns []int, v int) []int {
	pos := sort.SearchInts(ns, v)
	if pos < len(ns) && ns[pos] == v {
		return ns
	}
	ns = append(ns, 0)
	copy(ns[pos+1:], ns[pos:])
	ns[pos] = v
	return ns
}

// selectNeighbors is the HNSW neighbor-selection heuristic (Malkov &
// Yashunin, Alg. 4): walk the candidates in ascending distance from the
// base point and keep one only if it is closer to the base than to every
// already-kept neighbor. On clustered data this preserves the long-range
// edges that plain closest-M selection prunes away, which is what keeps
// the base layer navigable between GED clusters. Skipped candidates
// backfill remaining slots (keepPrunedConnections).
func (h *HNSW) selectNeighbors(c *DistCache, cands []Result, m int) []Result {
	if len(cands) <= m {
		return cands
	}
	kept := make([]Result, 0, m)
	var skipped []Result
	for _, cand := range cands {
		if len(kept) >= m {
			break
		}
		diverse := true
		for _, k := range kept {
			if h.pairDist(cand.ID, k.ID) < cand.Dist {
				diverse = false
				break
			}
		}
		if diverse {
			kept = append(kept, cand)
		} else {
			skipped = append(skipped, cand)
		}
	}
	for _, cand := range skipped {
		if len(kept) >= m {
			break
		}
		kept = append(kept, cand)
	}
	return kept
}

// pairDist returns the build-metric distance between two database graphs
// (memoized by the build metric).
func (h *HNSW) pairDist(a, b int) float64 {
	return h.buildMetric.Distance(h.PG.DB[a], h.PG.DB[b])
}

// maxDegree returns the degree cap of layer l: 2M on the base layer, M
// above (the standard HNSW heuristic).
func (h *HNSW) maxDegree(l int) int {
	if l == 0 {
		return 2 * h.m
	}
	return h.m
}

// layerNeighbors returns the adjacency function of layer l.
func (h *HNSW) layerNeighbors(l int) func(int) []int {
	if l == 0 {
		return h.PG.Neighbors
	}
	up := h.Upper[l-1]
	return func(id int) []int { return up[id] }
}

// greedyStep runs greedy search to the local optimum on layer l from ep.
// Insert hands in h.pool, so during Build each step's neighbor distances
// are prefetched through it; a query passes nil and pays them one
// at a time, checking ctx before each, so no GED call starts after a
// cancel. A cancelled ctx stops the descent at the current node: the
// result is still a valid entry point (just a worse one), and the
// caller's own ctx check decides whether the search proceeds.
func (h *HNSW) greedyStep(ctx context.Context, l, ep int, c *DistCache, pool *WorkerPool) int {
	neighbors := h.layerNeighbors(l)
	for {
		if ctx.Err() != nil {
			return ep
		}
		best := ep
		bd := c.Dist(ep)
		ns := neighbors(ep)
		if pool != nil {
			c.Prefetch(ns, pool)
		}
		for _, nb := range ns {
			if ctx.Err() != nil {
				return ep
			}
			if d := c.Dist(nb); d < bd {
				best, bd = nb, d
			}
		}
		if best == ep {
			return ep
		}
		ep = best
	}
}

// shrink prunes u's neighbor list back to cap with the same diversity
// heuristic as insertion; it returns the kept set sorted by id plus the
// dropped nodes.
func (h *HNSW) shrink(u int, ns []int, cap int) (kept, dropped []int) {
	// No prefetch: every distance from u to a neighbor was paid when that
	// edge was made, so during a build these are all hits in the build
	// metric's memo and not worth waking a helper for.
	c := NewDistCache(h.buildMetric, h.PG.DB, h.PG.DB[u])
	cands := make([]Result, len(ns))
	for i, v := range ns {
		cands[i] = Result{ID: v, Dist: c.Dist(v)}
	}
	sort.Slice(cands, func(i, j int) bool {
		return order.ByDistThenID(cands[i].Dist, cands[i].ID, cands[j].Dist, cands[j].ID)
	})
	selected := h.selectNeighbors(c, cands, cap)
	keptSet := make(map[int]bool, len(selected))
	for _, s := range selected {
		keptSet[s.ID] = true
		kept = append(kept, s.ID)
	}
	for _, v := range ns {
		if !keptSet[v] {
			dropped = append(dropped, v)
		}
	}
	sort.Ints(kept)
	return kept, dropped
}

// EntryPoint implements HNSW's initial node selection (HNSW_IS): greedy
// descent from the top layer down to layer 1, charging its distance
// computations to c. The returned node seeds the layer-0 routing. The
// context is checked before every distance computation; on cancellation
// the descent stops within one GED call and the current node is returned —
// the caller's ctx check decides what happens next.
func (h *HNSW) EntryPoint(ctx context.Context, c *DistCache) int {
	ep := h.Entry
	for l := h.Level[h.Entry]; l >= 1; l-- {
		ep = h.greedyStep(ctx, l, ep, c, nil)
	}
	return ep
}
