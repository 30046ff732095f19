// Package mutable gives a built LAN engine a write path: streaming
// inserts that extend the HNSW incrementally, deletes that tombstone
// vertices via validity epochs instead of tearing edges out, and an edge
// repair that re-selects the neighborhood each write disturbed before the
// write returns.
//
// Reads never block on writes. Every applied mutation — its repair
// included — bumps the epoch once and publishes a fresh immutable
// Snapshot through an atomic pointer; queries pin one snapshot and see a
// frozen index for their whole lifetime — bit-identical results and NDC
// no matter how many writes land concurrently. The writer maintains this
// with a copy-on-write discipline: publication hands out fresh copies of
// every outer structure (adjacency headers, layer maps, validity arrays,
// model-side tables), and the HNSW's write methods (Insert, Reselect,
// Detach) never edit a neighbor slice in place, so the inner slices a
// snapshot captured stay frozen too.
//
// The index starts no goroutine: a write does all of its work, repair
// included, on the caller's goroutine under the write lock, so the same
// writes from the same engine always leave the same graph and epochs.
//
// Ids are append-only and never reused: an insert takes the next id, a
// delete leaves a tombstoned husk behind, and Compact only strips the
// husk's edges. Downstream memoizations keyed by graph id — the GED
// build-metric memo, M_rk's node-embedding table — therefore stay valid
// across every mutation, which is what makes per-write work bounded.
package mutable

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/cluster"
	"github.com/lansearch/lan/internal/core"
	"github.com/lansearch/lan/internal/obs"
	"github.com/lansearch/lan/internal/pg"
)

// Index wraps a built engine with the write path. All mutating methods
// serialize on an internal lock; reads go through Snapshot and never
// take it.
type Index struct {
	mu  sync.Mutex
	eng *core.Engine // writer-owned; snapshots get views

	epoch uint64
	dead  []bool
	born  []uint64
	died  []uint64
	live  int

	snap atomic.Pointer[Snapshot]

	closed bool
}

// Snapshot is one point-in-time read view: a frozen engine plus the
// epoch it was published at. Queries against it are bit-identical for
// the snapshot's whole lifetime, regardless of concurrent writes.
type Snapshot struct {
	Engine *core.Engine
	Epoch  uint64
	// Live is the number of non-tombstoned graphs.
	Live int

	state *core.MutationState
}

// New wraps eng, whose ownership transfers to the returned index (the
// caller must not mutate or search eng directly afterwards; use
// Snapshot). st carries the epoch and validity stamps of an index that
// was saved after writes; nil means a fresh, never-mutated engine.
func New(eng *core.Engine, st *core.MutationState) (*Index, error) {
	n := len(eng.DB)
	x := &Index{
		eng:  eng,
		dead: make([]bool, n),
		born: make([]uint64, n),
		died: make([]uint64, n),
		live: n,
	}
	if st != nil {
		if len(st.Born) != n || len(st.Died) != n {
			return nil, fmt.Errorf("mutable: %d/%d validity stamps for %d graphs", len(st.Born), len(st.Died), n)
		}
		x.epoch = st.Epoch
		copy(x.born, st.Born)
		copy(x.died, st.Died)
		for i, d := range x.died {
			if d > 0 {
				x.dead[i] = true
				x.live--
			}
		}
	}
	// A reopened index carries no build metric, degree or insertion beam:
	// Arm restores them.
	eng.Index.Arm(eng.Opts.BuildMetric, eng.Opts.M)
	x.mu.Lock()
	x.publishLocked()
	x.mu.Unlock()
	return x, nil
}

// Snapshot returns the current read view (never nil).
func (x *Index) Snapshot() *Snapshot { return x.snap.Load() }

// Epoch returns the current mutation epoch (0 = never mutated). Caches
// keyed by query content compose this in so stale entries die with the
// epoch they were computed at.
func (x *Index) Epoch() uint64 { return x.snap.Load().Epoch }

// Len returns the number of live (non-tombstoned) graphs.
func (x *Index) Len() int { return x.snap.Load().Live }

// Total returns the database size including tombstoned husks (the id
// space).
func (x *Index) Total() int { return len(x.snap.Load().Engine.DB) }

// State returns a copy of the mutation state for persistence, taken
// from the given snapshot so it is consistent with what that snapshot's
// engine serializes. Nil when the snapshot predates any mutation.
func (s *Snapshot) State() *core.MutationState { return s.state }

// Insert adds g to the index and returns its id. The graph is cloned,
// wired into every HNSW layer through HNSW.Insert, embedded
// into M_rk's node table and assigned to its nearest cluster; then the new
// vertex and its base-layer neighbors are re-selected (see repairLocked)
// before the one snapshot of the write is published.
func (x *Index) Insert(g *graph.Graph) (int, error) {
	if g == nil {
		return 0, fmt.Errorf("mutable: nil graph")
	}
	if err := g.Validate(); err != nil {
		return 0, fmt.Errorf("mutable: %w", err)
	}
	clone := g.Clone()
	start := time.Now()

	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return 0, fmt.Errorf("mutable: index closed")
	}
	id := len(x.eng.DB)
	clone.ID = id
	x.eng.DB = append(x.eng.DB, clone)
	// The index routes over the same database slice; re-point its header
	// so Insert sees the appended graph (append may reallocate).
	x.eng.Index.PG.DB = x.eng.DB
	x.dead = append(x.dead, false)
	x.born = append(x.born, x.epoch+1)
	x.died = append(x.died, 0)

	level := pg.DeterministicLevel(x.eng.Opts.Seed, id, x.eng.Opts.M)
	// Writes are applied under the index lock and are not cancellable
	// mid-edit: a half-wired vertex is worse than a briefly-blocked
	// caller.
	x.eng.Index.Insert(id, level)
	x.repairLocked(append([]int{id}, x.eng.Index.PG.Adj[id]...))

	x.eng.Mrk.AppendNodeEmbedding(x.eng.Mrk.EmbedGraph(clone))
	x.assignClusterLocked(clone, id)

	x.live++
	x.epoch++
	x.publishLocked()
	x.mu.Unlock()

	m := obs.Mutate()
	m.Inserts.Inc()
	m.ApplySeconds.Observe(time.Since(start).Seconds())
	return id, nil
}

// Delete tombstones graph id at the next epoch. The vertex keeps its
// edges — routing travels through it as before — but it stops appearing
// in results from the published snapshot on. Its live neighbors are
// re-selected (see repairLocked) before the write publishes, and Compact
// can later strip the husk's edges.
func (x *Index) Delete(id int) error {
	start := time.Now()
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return fmt.Errorf("mutable: index closed")
	}
	if id < 0 || id >= len(x.eng.DB) {
		x.mu.Unlock()
		return fmt.Errorf("mutable: no graph with id %d", id)
	}
	if x.dead[id] {
		x.mu.Unlock()
		return fmt.Errorf("mutable: graph %d already deleted", id)
	}
	x.epoch++
	x.dead[id] = true
	x.died[id] = x.epoch
	x.live--
	x.repairLocked(x.eng.Index.PG.Adj[id])
	x.publishLocked()
	x.mu.Unlock()

	m := obs.Mutate()
	m.Deletes.Inc()
	m.ApplySeconds.Observe(time.Since(start).Seconds())
	return nil
}

// Compact detaches tombstoned vertices from the proximity graph:
// each husk's live neighbors are pairwise bridged so routes through it
// survive, then its edges are stripped on every layer. The bridging is
// Compact's repair; nothing is re-selected after it. Ids never shift
// — the husk rows stay — so this bounds graph size growth without
// invalidating any id-keyed state. Returns the number of vertices
// detached.
func (x *Index) Compact() (int, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return 0, fmt.Errorf("mutable: index closed")
	}
	alive := func(v int) bool { return !x.dead[v] }
	detached := 0
	for id := range x.dead {
		if !x.dead[id] || len(x.eng.Index.PG.Adj[id]) == 0 {
			continue
		}
		// See Insert for why write application is uncancellable.
		x.eng.Index.Detach(id, alive)
		detached++
	}
	changed := detached > 0
	if x.rescueEntryLocked() {
		changed = true
	}
	if changed {
		x.epoch++
		x.publishLocked()
	}
	return detached, nil
}

// repairLocked re-runs neighbor selection (HNSW.Reselect: 2-hop
// candidates, diversity heuristic, symmetric rewiring) around every node
// a write disturbed, in order, skipping tombstones — they stay navigable
// until Compact. It runs to the end under the write lock: a write returns
// with its neighborhood repaired, never with a backlog behind it.
func (x *Index) repairLocked(disturbed []int) {
	for _, u := range disturbed {
		if !x.dead[u] {
			// See Insert for why write application is uncancellable.
			x.eng.Index.Reselect(u)
		}
	}
}

// rescueEntryLocked re-points the HNSW entry at a live vertex when the
// current entry is a detached husk (edgeless vertices cannot seed a
// search). It picks the live vertex with the highest level, ties to the
// smallest id, matching what batch construction would have chosen.
func (x *Index) rescueEntryLocked() bool {
	h := x.eng.Index
	entry := h.Entry
	if !x.dead[entry] && len(h.PG.Adj[entry]) > 0 {
		return false
	}
	best, bestLevel := -1, -1
	for id := range x.dead {
		if x.dead[id] {
			continue
		}
		if l := h.Level[id]; l > bestLevel {
			best, bestLevel = id, l
		}
	}
	if best < 0 || best == entry {
		return false
	}
	h.Entry = best
	return true
}

// assignClusterLocked folds an inserted graph into the fitted
// clustering: nearest centroid by the feature embedding, appended to
// Assign and (copy-on-write) to that cluster's member list.
func (x *Index) assignClusterLocked(g *graph.Graph, id int) {
	km := x.eng.Mc.Clusters()
	c := x.eng.Mc.NearestCentroid(g)
	km.Assign = append(km.Assign, c)
	members := make([]int, len(km.Members[c])+1)
	copy(members, km.Members[c])
	members[len(members)-1] = id
	km.Members[c] = members
}

// publishLocked snapshots the writer state into a fresh immutable view
// and swaps it in. Every outer structure is copied (headers pinned to
// their current length); inner neighbor slices are shared but frozen —
// the HNSW's write methods replace them wholesale instead of editing in
// place.
func (x *Index) publishLocked() {
	h := x.eng.Index
	n := len(x.eng.DB)

	db := x.eng.DB[:n:n]
	adj := make([][]int, n)
	copy(adj, h.PG.Adj)
	var dead []bool
	if x.epoch > 0 {
		dead = make([]bool, n)
		copy(dead, x.dead)
	}
	upper := make([]map[int][]int, len(h.Upper))
	for l, m := range h.Upper {
		cm := make(map[int][]int, len(m))
		for k, v := range m {
			cm[k] = v
		}
		upper[l] = cm
	}
	level := make([]int, n)
	copy(level, h.Level)

	idx := &pg.HNSW{
		PG:    &pg.PG{DB: db, Adj: adj, Dead: dead},
		Upper: upper,
		Level: level,
		Entry: h.Entry,
	}

	embsSrc := x.eng.Mrk.NodeEmbeddings()
	embs := embsSrc[:len(embsSrc):len(embsSrc)]

	kmSrc := x.eng.Mc.Clusters()
	km := &cluster.KMeans{
		Centroids: kmSrc.Centroids,
		Assign:    kmSrc.Assign[:n:n],
		Members:   make([][]int, len(kmSrc.Members)),
	}
	copy(km.Members, kmSrc.Members)

	var st *core.MutationState
	if x.epoch > 0 {
		st = &core.MutationState{
			Epoch: x.epoch,
			Born:  append([]uint64(nil), x.born...),
			Died:  append([]uint64(nil), x.died...),
		}
	}
	x.snap.Store(&Snapshot{
		Engine: x.eng.SnapshotView(db, idx, embs, km),
		Epoch:  x.epoch,
		Live:   x.live,
		state:  st,
	})
}

// Close rejects further writes; the index keeps serving reads from its
// last snapshot. Safe to call more than once.
func (x *Index) Close() error {
	x.mu.Lock()
	x.closed = true
	x.mu.Unlock()
	return nil
}
