// Package route implements the paper's Sec. IV: routing with neighbor
// pruning on a proximity graph (np_route, Algorithms 2-4). At each routing
// step the current node's PG-neighbors are ranked into batches of y% each
// by a Ranker — an oracle or a learned model — and batches are opened
// lazily under a growing GED threshold, so distances to unpromising
// neighbors are never computed. Neighbors whose distance the query
// already knows are not ranked: they join the candidate pool free and
// never stop the opening. Without a ranker every neighbor is one
// batch and Route is the baseline beam search (Algorithm 1); with an
// oracle ranker the search results provably equal the baseline's while
// NDC never increases (Lemma 1, Theorem 1).
package route

import (
	"context"
	"slices"
	"sort"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/internal/obs"
	"github.com/lansearch/lan/internal/order"
	"github.com/lansearch/lan/internal/pg"
)

// Ranker orders the PG-neighbors of a node by predicted proximity to the
// query and partitions them into batches (B_0 holds the predicted-closest
// y% and so on). Route hands it only the neighbors whose distance the
// query does not know yet, and never an empty list. dCurrent is the known distance from the query to the node
// whose neighbors are ranked — learned rankers use it to fall back to a
// single batch outside the query's neighborhood. Rankers are constructed
// per query, so implementations may close over per-search state (the
// learned ranker caches the query's compressed GNN-graph this way; see
// models.NeighborRanker.Ranker).
type Ranker interface {
	Batches(node int, neighbors []int, dCurrent float64) [][]int
}

// RankerFunc adapts a function to the Ranker interface.
type RankerFunc func(node int, neighbors []int, dCurrent float64) [][]int

// Batches implements Ranker.
func (f RankerFunc) Batches(node int, neighbors []int, dCurrent float64) [][]int {
	return f(node, neighbors, dCurrent)
}

// OracleRanker ranks neighbors by their true distance to the query without
// charging distance computations — the idealized ranker of Sec. IV-A used
// to analyze np_route. BatchPercent is the paper's y (models.BatchPercent
// in the engine; the ablation benchmarks vary it).
type OracleRanker struct {
	Cache        *pg.DistCache // read-only view of the database and query
	BatchPercent int
	// RankMetric, when set, replaces the cache's metric for ranking.
	// Wall-clock benchmarks set a cheap approximation here so that the
	// hypothetical "negligible time" of the oracle is not simulated with
	// the full query metric; correctness analyses leave it nil.
	RankMetric ged.Metric
}

// Batches implements Ranker by true-distance sorting. Each ranking
// distance is evaluated once before the sort, not once per comparison.
func (o *OracleRanker) Batches(node int, neighbors []int, dCurrent float64) [][]int {
	ranked := append([]int(nil), neighbors...)
	metric := o.RankMetric
	if metric == nil {
		metric = o.Cache.Metric
	}
	d := make(map[int]float64, len(neighbors))
	for _, id := range neighbors {
		d[id] = metric.Distance(o.Cache.DB[id], o.Cache.Q)
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		return order.ByDistThenID(d[ranked[i]], ranked[i], d[ranked[j]], ranked[j])
	})
	return SplitBatches(ranked, o.BatchPercent)
}

// SplitBatches partitions an already-ranked neighbor list into batches of
// percent% each (at least one neighbor per batch). Every caller passes its
// y; nothing defaults it.
func SplitBatches(ranked []int, percent int) [][]int {
	return AppendBatches(nil, ranked, percent)
}

// AppendBatches is SplitBatches appending to dst: a caller that hands in
// room for ceil(100/percent) batches gets its batch list without an
// allocation.
func AppendBatches(dst [][]int, ranked []int, percent int) [][]int {
	n := len(ranked)
	if n == 0 {
		return dst
	}
	size := (n*percent + 99) / 100
	if size < 1 {
		size = 1
	}
	for i := 0; i < n; i += size {
		end := i + size
		if end > n {
			end = n
		}
		dst = append(dst, ranked[i:end])
	}
	return dst
}

// Config holds np_route's parameters.
type Config struct {
	// K is the number of answers.
	K int
	// Beam is b, the candidate pool size.
	Beam int
	// StepSize is d_s, the threshold increment between supersteps
	// (default 1 — GED is integral under unit costs). Stage 2 ends only
	// because γ grows, so a step that γ absorbs (γ + d_s == γ) never ends
	// it; the engine always routes at the default.
	StepSize float64
}

func (c *Config) defaults() {
	if c.K <= 0 {
		c.K = 1
	}
	if c.Beam < c.K {
		c.Beam = c.K
	}
	if c.StepSize <= 0 {
		c.StepSize = 1
	}
}

// Stats reports the routing effort. With a ranker, a node's neighbors
// whose distance the query already knows when the node is ranked form its
// known set: they join W at no NDC and are never handed to the ranker, so
// Ranked, Opened and BatchesOpened count the unknown neighbors only.
type Stats struct {
	// NDC is the number of distance computations.
	NDC int
	// Explored counts nodes whose neighbors were (partially) explored.
	Explored int
	// RankerCalls counts ranked nodes, one per explored node, including a
	// node whose neighbors were all known and so never reached the
	// ranker (model inferences happen inside the calls that did).
	RankerCalls int
	// BatchesOpened counts opened neighbor batches across all nodes.
	BatchesOpened int
	// Ranked counts neighbors handed to the ranker (without one, every
	// neighbor, in one batch); Opened counts those whose batch was opened
	// (distance paid or read from the memo). 1 - Opened/Ranked is the
	// prune rate — the fraction of the neighbors the ranker was asked
	// about that np_route never opened.
	Ranked int
	Opened int
	// GammaSteps is the number of stage-2 supersteps (the length of the
	// γ-threshold trajectory).
	GammaSteps int
}

// nodeState tracks the batch progress of one PG node during a query.
type nodeState struct {
	// known holds the neighbors whose distance was already in the cache
	// when the node was ranked (a ranker set): they are in no batch, so
	// they never stop the opening of the batches that follow.
	known   []int
	batches [][]int
	opened  int
}

// router carries the per-query state of np_route.
type router struct {
	ctx    context.Context
	pg     *pg.PG
	cache  *pg.DistCache
	ranker Ranker // nil: Algorithm 1, every neighbor in one batch
	cfg    Config

	w      *pg.Pool
	states map[int]*nodeState
	// ids is the chunk the nodes' known sets and the ranker's inputs are
	// cut from, so splitting a node's neighbors allocates only when a
	// chunk runs out; a cut is never written after it is made.
	ids      []int
	explored []int // exploration order
	stats    Stats
	trace    *obs.Trace // nil when tracing is disabled
	err      error      // first cancellation error; set once, then unwind
}

// canceled records and reports context cancellation. Every distance-paying
// loop checks it so an expired deadline stops the routing within one GED
// call.
func (r *router) canceled() bool {
	if r.err != nil {
		return true
	}
	if err := r.ctx.Err(); err != nil {
		r.err = err
		return true
	}
	return false
}

// state lazily ranks and batches the neighbors of node id; without a
// ranker they form one batch. With one, the neighbors whose distance is
// known join W now, at no NDC, and only the unknown rest is ranked — the
// ranker is not called when none is left.
func (r *router) state(id int, dCurrent float64) *nodeState {
	if s, ok := r.states[id]; ok {
		return s
	}
	neighbors := r.pg.Neighbors(id)
	s := &nodeState{}
	switch {
	case r.ranker != nil:
		unknown := r.split(s, neighbors)
		for _, nb := range s.known {
			r.w.Add(nb, r.cache.Dist(nb))
		}
		if len(unknown) > 0 {
			s.batches = r.ranker.Batches(id, unknown, dCurrent)
			r.stats.Ranked += len(unknown)
		}
		r.stats.RankerCalls++
	case len(neighbors) > 0:
		s.batches = [][]int{neighbors}
		r.stats.Ranked += len(neighbors)
	}
	r.states[id] = s
	return s
}

// idChunk is the size of a chunk of r.ids: a few ranked nodes' worth on
// the benchmark's indexes, so a query cuts its splits from a handful.
const idChunk = 512

// split sets s.known to the neighbors whose distance the cache holds and
// returns the others, both in PG order and cut from r.ids.
func (r *router) split(s *nodeState, neighbors []int) []int {
	n := len(neighbors)
	if cap(r.ids)-len(r.ids) < n {
		r.ids = make([]int, 0, max(idChunk, n))
	}
	cut := r.ids[len(r.ids) : len(r.ids)+n : len(r.ids)+n]
	r.ids = r.ids[:len(r.ids)+n]
	// Unknown neighbors fill the cut from the front, known ones from the
	// back; reversing the back restores their order.
	u, k := 0, n
	for _, nb := range neighbors {
		if r.cache.Known(nb) {
			k--
			cut[k] = nb
		} else {
			cut[u] = nb
			u++
		}
	}
	s.known = cut[k:]
	slices.Reverse(s.known)
	return cut[:u:u]
}

// farthestOpened returns the largest known distance among the members of
// the opened batches of s (ok false when none opened); the known set is
// not read.
func (r *router) farthestOpened(s *nodeState) (float64, bool) {
	found := false
	far := 0.0
	for _, b := range s.batches[:s.opened] {
		for _, id := range b {
			if d := r.cache.Dist(id); !found || d > far {
				far, found = d, true
			}
		}
	}
	return far, found
}

// openBatch computes distances for batch j of s and adds its members to W.
// It returns true when the batch contains a member with d >= gamma (the
// caller must stop opening) or the query is canceled.
func (r *router) openBatch(s *nodeState, j int, gamma float64) bool {
	hitThreshold := false
	for _, id := range s.batches[j] {
		if r.canceled() {
			return true
		}
		d := r.cache.Dist(id)
		r.w.Add(id, d)
		if d >= gamma {
			hitThreshold = true
		}
	}
	s.opened = j + 1
	r.stats.BatchesOpened++
	r.stats.Opened += len(s.batches[j])
	return hitThreshold
}

// openBelow opens the unopened batches of s in order, stopping after the
// first one that reaches gamma — the tail Algorithms 3 and 4 share.
func (r *router) openBelow(s *nodeState, gamma float64) {
	for j := s.opened; j < len(s.batches); j++ {
		if r.openBatch(s, j, gamma) {
			return
		}
	}
}

// rankExpl is Algorithm 4: open further batches of node id while the
// farthest already-known opened neighbor is still below gamma, stopping
// after the first batch that reaches it.
func (r *router) rankExpl(id int, gamma, dCurrent float64) {
	if r.canceled() {
		return
	}
	s := r.state(id, dCurrent)
	if far, ok := r.farthestOpened(s); ok && far >= gamma {
		return
	}
	r.openBelow(s, gamma)
}

// allQualiNeigh is Algorithm 3: make sure every neighbor of explored node
// id with distance below gamma is in W — re-adding the known set and the
// members of opened batches, and opening new batches as needed. A member
// farther than cutoff (the pool's Cutoff when the sweep began) would be
// evicted by the sweep's Resize, so it is not re-added. Only opened
// batches, not the known set, stop the sweep at gamma.
func (r *router) allQualiNeigh(id int, gamma, cutoff float64) {
	if r.canceled() {
		return
	}
	s := r.states[id] // explored nodes always have state
	for _, nb := range s.known {
		if d := r.cache.Dist(nb); d <= cutoff {
			r.w.Add(nb, d)
		}
	}
	for j := 0; j < s.opened; j++ {
		hit := false
		for _, nb := range s.batches[j] {
			d := r.cache.Dist(nb) // known: batch was opened
			if d <= cutoff {
				r.w.Add(nb, d)
			}
			if d >= gamma {
				hit = true
			}
		}
		if hit {
			return
		}
	}
	r.openBelow(s, gamma)
}

// markExplored stamps a node as explored in both the pool and the order
// log, and records the step in the query trace (gamma is the pruning
// threshold that was in force while this node's batches were opened).
func (r *router) markExplored(id int, gamma float64) {
	r.w.MarkExplored(id)
	r.explored = append(r.explored, id)
	r.stats.Explored++
	if r.trace != nil {
		s := r.states[id]
		ranked, opened := 0, 0
		for j, b := range s.batches {
			ranked += len(b)
			if j < s.opened {
				opened += len(b)
			}
		}
		// Lookup, not Dist: trace recording must not perturb NDC or the
		// memo's hit accounting.
		d, _ := r.cache.Lookup(id)
		r.trace.Step(id, d, ranked, opened, gamma, r.cache.NDC())
	}
}

// Route runs np_route (Algorithm 2) from the given entry node and returns
// the k-ANNs with routing statistics. A nil ranker puts every neighbor in
// one batch: that is Algorithm 1, the baseline, with no ranker call
// counted and every ranked neighbor opened. The context is checked before
// every distance computation, so an expired deadline stops the routing
// within one GED call; on cancellation it returns ctx.Err() along with the
// statistics accumulated so far.
func Route(ctx context.Context, p *pg.PG, cache *pg.DistCache, ranker Ranker, entry int, cfg Config) ([]pg.Result, Stats, error) {
	cfg.defaults()
	r := &router{
		ctx: ctx, pg: p, cache: cache, ranker: ranker, cfg: cfg,
		w: pg.NewPool(cfg.K, p.Dead), states: make(map[int]*nodeState),
		trace: obs.From(ctx),
	}
	r.trace.SetEntry(entry)

	// Stage 1 (Lines 1-12): greedy descent without backtracking until the
	// first local optimum.
	r.w.Add(entry, cache.Dist(entry))
	cur, _ := r.w.Best()
	for !r.w.Explored(cur.ID) && !r.canceled() {
		r.rankExpl(cur.ID, cur.Dist, cur.Dist)
		r.markExplored(cur.ID, cur.Dist)
		r.w.Resize(cfg.Beam)
		cur, _ = r.w.Best()
	}

	// Stage 2 (Lines 13-29): backtracking supersteps under a growing
	// threshold gamma.
	flo, _ := r.w.Best()
	gamma := flo.Dist + cfg.StepSize
	for r.err == nil {
		r.stats.GammaSteps++
		r.trace.Gamma(gamma)
		// The sweep only adds to W and never explores: r.explored does not
		// grow under it, and the members behind the cutoff stay in W until
		// the Resize below.
		cutoff := r.w.Cutoff(cfg.Beam)
		for _, id := range r.explored {
			r.allQualiNeigh(id, gamma, cutoff)
		}
		r.w.Resize(cfg.Beam)
		// canceled first: a cancel that lands inside the query's last
		// distance computation must still end the search with ctx.Err().
		if r.canceled() || r.w.AllExplored() {
			break
		}
		for {
			c, ok := r.w.NextUnexploredWithin(gamma)
			if !ok || r.canceled() {
				break
			}
			r.rankExpl(c.ID, gamma, c.Dist)
			r.markExplored(c.ID, gamma)
			r.w.Resize(cfg.Beam)
		}
		gamma += cfg.StepSize
	}

	r.stats.NDC = cache.NDC()
	if r.err != nil {
		return nil, r.stats, r.err
	}
	// Tombstoned vertices routed like any other; they are dropped only
	// here, at result assembly (nil Dead on immutable indexes filters
	// nothing).
	return r.w.TopKAlive(), r.stats, nil
}
