package pg

import (
	"context"
	"math"
	"sort"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/internal/order"
)

// The write methods below — Insert, Reselect, Detach and the edge edits
// under them — edit a built HNSW under a copy-on-write discipline: every
// edge edit builds a fresh neighbor slice and assigns it into the
// writer-owned adjacency, never touching a slice in place. Published
// snapshots hold their own copies of the outer Adj slice (and cloned
// Upper maps), so a reader that captured the index before an edit keeps
// seeing the exact pre-edit neighbor lists — the mutable package's
// epoch-pinned reads rely on this. Build inserts through the same Insert.
//
// The write methods are single-writer: the owning index serializes calls
// under its write lock. They share the HNSW's memoizing build metric, so
// the repairs later writes make in an already-edited region get cheaper.

// Arm prepares h for incremental writes. Indexes reopened from a snapshot
// carry no build metric, degree parameter or insertion beam (batch
// construction is over), so Arm re-arms what is missing: metric and m
// must match the values the index was built with for edits to preserve
// its geometry, and the insertion beam is the 2m every build defaults to.
// On an index Build returned it changes nothing.
func (h *HNSW) Arm(metric ged.Metric, m int) {
	if h.buildMetric == nil {
		if metric == nil {
			metric = ged.MetricFunc(ged.Hungarian)
		}
		h.buildMetric = newMemo(metric)
	}
	if h.m <= 0 {
		h.m = m
	}
	if h.efConstruction <= 0 {
		h.efConstruction = 2 * h.m
	}
}

// DeterministicLevel derives the HNSW level of node id from (seed, id)
// via a splitmix-style hash feeding the same exponential distribution
// batch construction draws from (mL = 1/ln m). Hashing instead of
// consuming a shared RNG keeps an insert's level independent of every
// other write, so replaying the same inserts always rebuilds the same
// hierarchy.
func DeterministicLevel(seed int64, id, m int) int {
	x := uint64(seed) ^ (uint64(id)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	u := float64(x>>11) / (1 << 53) // uniform [0, 1)
	mL := 1 / math.Log(float64(m))
	return int(-math.Log(1-u) * mL)
}

// Insert wires node id (its graph already appended to the database, its
// level already chosen) into every layer: greedy descent above the node's
// level, then per-layer candidate-beam search, diversity selection and
// symmetric connection. It is the one insertion there is: Build calls it
// for every graph in id order, with its worker pool prefetching the
// distances, and the write path for every streamed graph. Write
// application carries no context on purpose: it is atomic by design —
// cancelling mid-edit would leave a half-wired vertex — and its cost is
// bounded by the beam width, not by a query's unbounded search.
func (h *HNSW) Insert(id, level int) {
	for len(h.PG.Adj) <= id {
		h.PG.Adj = append(h.PG.Adj, nil)
		h.Level = append(h.Level, 0)
	}
	h.Level[id] = level
	for len(h.Upper) < level {
		h.Upper = append(h.Upper, make(map[int][]int))
	}
	if id == 0 {
		h.Entry = 0
		return
	}

	c := NewDistCache(h.buildMetric, h.PG.DB, h.PG.DB[id])
	ep := h.Entry
	top := h.Level[h.Entry]
	for l := top; l > level; l-- {
		ep = h.greedyStep(context.Background(), l, ep, c, h.pool) // write application is atomic: cancelling mid-edit would leave a half-wired vertex
	}
	start := level
	if start > top {
		start = top
	}
	for l := start; l >= 0; l-- {
		results := searchLayer(c, h.layerNeighbors(l), ep, h.efConstruction, h.pool)
		for _, r := range h.selectNeighbors(c, results, h.maxDegree(l)) {
			h.connect(l, id, r.ID)
		}
		if len(results) > 0 {
			ep = results[0].ID
		}
	}
	if level > h.Level[h.Entry] {
		h.Entry = id
	}
}

// Reselect re-runs neighbor selection for node u over its current
// neighbors plus their neighbors (the 2-hop candidate set), rewiring
// the base layer to the diverse subset — the continuous edge
// optimization that repairs neighborhoods churned by inserts and
// deletes. It returns the number of distance computations charged, so
// the caller can meter a pass against its work budget. Like Insert it
// carries no context: a pass is atomic and budget-bounded.
func (h *HNSW) Reselect(u int) int {
	if u < 0 || u >= len(h.PG.Adj) {
		return 0
	}
	current := h.PG.Adj[u]
	if len(current) == 0 {
		return 0
	}
	seen := map[int]bool{u: true}
	var candIDs []int
	add := func(v int) {
		if !seen[v] {
			seen[v] = true
			candIDs = append(candIDs, v)
		}
	}
	for _, v := range current {
		add(v)
	}
	for _, v := range current {
		for _, w := range h.PG.Adj[v] {
			add(w)
		}
	}
	c := NewDistCache(h.buildMetric, h.PG.DB, h.PG.DB[u])
	cands := make([]Result, len(candIDs))
	for i, v := range candIDs {
		cands[i] = Result{ID: v, Dist: c.Dist(v)}
	}
	sort.Slice(cands, func(i, j int) bool {
		return order.ByDistThenID(cands[i].Dist, cands[i].ID, cands[j].Dist, cands[j].ID)
	})
	selected := h.selectNeighbors(c, cands, h.maxDegree(0))
	want := make(map[int]bool, len(selected))
	for _, s := range selected {
		want[s.ID] = true
	}
	for _, v := range current {
		if want[v] {
			continue
		}
		// Dropping (u, v) must not strand v: keep the edge when it is v's
		// last one (connectivity outranks diversity).
		if len(h.PG.Adj[v]) <= 1 {
			continue
		}
		h.removeDirected(0, u, v)
		h.removeDirected(0, v, u)
	}
	for _, s := range selected {
		h.connect(0, u, s.ID)
	}
	return c.NDC()
}

// Detach disconnects node u (a tombstoned vertex) from every layer:
// its live neighbors are pairwise bridged on the base layer so routes
// that traveled through u survive, then all of u's edges are removed.
// The node remains in the database as an edgeless husk — ids never
// shift. Like Insert it carries no context: detaching is atomic and its
// cost is bounded by u's degree.
func (h *HNSW) Detach(u int, alive func(int) bool) {
	if u < 0 || u >= len(h.PG.Adj) {
		return
	}
	top := h.Level[u]
	if top > h.MaxLevel() {
		top = h.MaxLevel()
	}
	for l := top; l >= 0; l-- {
		ns := h.layerAdj(l, u)
		if l == 0 {
			var live []int
			for _, v := range ns {
				if alive(v) {
					live = append(live, v)
				}
			}
			for i, v := range live {
				for _, w := range live[i+1:] {
					h.connect(0, v, w)
				}
			}
		}
		for _, v := range ns {
			h.removeDirected(l, v, u)
		}
		if l == 0 {
			h.PG.Adj[u] = nil
		} else {
			delete(h.Upper[l-1], u)
		}
	}
}

// layerAdj returns u's neighbor slice on layer l. Callers must treat it
// as read-only (it may be shared with published snapshots).
func (h *HNSW) layerAdj(l, u int) []int {
	if l == 0 {
		return h.PG.Adj[u]
	}
	return h.Upper[l-1][u]
}

// setAdj installs a fresh neighbor slice for u on layer l.
func (h *HNSW) setAdj(l, u int, ns []int) {
	if l == 0 {
		h.PG.Adj[u] = ns
	} else {
		h.Upper[l-1][u] = ns
	}
}

// connect adds the undirected edge (a, b) on layer l. Insert's first
// endpoint is always a fresh under-capacity node, but Reselect and Detach
// bridge vertices that may both be full: a's shrink can drop b again
// before b ever links back, which would leave the half-edge (b, a)
// dangling. The PG is undirected, so a one-sided survivor is removed.
func (h *HNSW) connect(l, a, b int) {
	if a == b {
		return
	}
	h.addDirected(l, a, b)
	h.addDirected(l, b, a)
	ab := containsSorted(h.layerAdj(l, a), b)
	ba := containsSorted(h.layerAdj(l, b), a)
	if ab != ba {
		if ab {
			h.removeDirected(l, a, b)
		} else {
			h.removeDirected(l, b, a)
		}
	}
}

// addDirected adds v to u's neighbors on layer l, shrinking u back to
// the degree cap with the diversity heuristic. It never writes into the
// existing slice: the new list is always a fresh allocation, so snapshots
// holding the old one are untouched.
func (h *HNSW) addDirected(l, u, v int) {
	ns := h.layerAdj(l, u)
	pos := sort.SearchInts(ns, v)
	if pos < len(ns) && ns[pos] == v {
		return
	}
	grown := make([]int, len(ns)+1)
	copy(grown, ns[:pos])
	grown[pos] = v
	copy(grown[pos+1:], ns[pos:])
	var dropped []int
	if cap := h.maxDegree(l); len(grown) > cap {
		grown, dropped = h.shrink(u, grown, cap) // builds fresh slices
	}
	h.setAdj(l, u, grown)
	for _, w := range dropped {
		h.removeDirected(l, w, u)
	}
}

// removeDirected drops v from u's neighbors on layer l, copy-on-write.
func (h *HNSW) removeDirected(l, u, v int) {
	ns := h.layerAdj(l, u)
	pos := sort.SearchInts(ns, v)
	if pos >= len(ns) || ns[pos] != v {
		return
	}
	shrunk := make([]int, 0, len(ns)-1)
	shrunk = append(shrunk, ns[:pos]...)
	shrunk = append(shrunk, ns[pos+1:]...)
	h.setAdj(l, u, shrunk)
}
