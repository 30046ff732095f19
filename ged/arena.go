package ged

import (
	"math/bits"
	"sync"
	"unsafe"

	"github.com/lansearch/lan/graph"
)

// pairCtx is the pooled per-pair arena every GED kernel runs on: budgeted
// A*, the VJ and Hungarian bipartite bounds and beam search. One
// Ensemble.Distance call draws one arena, loads the pair once — labels
// interned to dense ids, h's adjacency as a bitset, and (prepSearch) the
// processing order with its suffix tables — and runs up to four kernels on
// it. All slices grow monotonically and are reused across calls through
// arenaPool, so after a few calls at the corpus' working sizes every
// kernel reaches a zero-alloc steady state (TestEnsembleAllocs) and keeps
// it across garbage collections (TestArenaSurvivesGC).
type pairCtx struct {
	// g, h is the loaded pair; acquire orients it so that g is the smaller
	// graph (the search kernels branch over h) and records in swapped
	// whether that exchanged the caller's arguments.
	g, h    *graph.Graph
	swapped bool
	gN, hN  int
	hWords  int
	hM      int32

	// Label interning: labels[id] is the label string of dense id id, and
	// labelSlot the open-addressing table from a label's hash to id+1 (0
	// empty); gLab/hLab hold the interned label of each node.
	labels    []string
	labelSlot []int32
	nLabels   int
	gLab      []int32
	hLab      []int32
	hAdj      []uint64 // hN rows of hWords words: the adjacency bitset of h

	// Static g-side search tables, filled by prepSearch.
	order       []int32 // g nodes in processing order (degree descending)
	pos         []int32 // pos[u] is the order position of g node u
	suffixHist  []int32 // (gN+1) x nLabels label histogram of order[i:]
	suffixEdges []int32 // edges with both endpoints at positions >= i
	hHist       []int32 // label histogram of h
	lbHist      []int32 // labelBound's label multiset of g, less h's

	// Per-parent tables, filled by prepParent before a state's children
	// are priced: usedHist is the state's used-h-node label histogram; img
	// is the bitset over h of the images of the deciding g node's
	// processed, mapped neighbours; nDel and nMapped count those neighbours
	// deleted and mapped; common is the heuristic's label-overlap sum one
	// depth down, which each child adjusts at its own label only.
	usedHist      []int32
	img           []uint64
	nDel, nMapped int32
	common        int32

	// Search state. A* keeps every generated child in cands (parent
	// pointers index into it) and its open list in heap. Beam search uses
	// cands as its selection slots, seq for each slot's creation index at
	// this depth and heap as the max-heap over slots, refilled at every
	// depth. The kernels run one after the other, so they share the
	// storage.
	cands    []searchCand
	seq      []int
	heap     []int32
	frontier []searchState
	next     []searchState

	// Ping-pong state arenas: the beam frontier lives in the A buffers
	// while survivors are materialized into the B buffers, then the pair
	// swaps. A* rebuilds the one state it expands in slot A0, and the
	// bipartite bounds put their node mapping there.
	phiA, phiB   []int32
	usedA, usedB []uint64

	// Assignment scratch: the n1 x n2 Riesen–Bunke instance in compact form
	// — cost holds the substitution block, the deletion vector and the
	// insertion vector back to back, sub/del/ins are views into it (see
	// bipartite.go) — and the solvers' working vectors (assignment.go).
	n1, n2        int
	cost          []float64
	sub, del, ins []float64
	fa, fb        []float64
	ia, ib, ic    []int32
	assign        []int32
	scanned       []scan
	lvl, seen     []uint64
	deg           []int32 // fillCosts' node degrees of the column graph
	// cand is the relax kernel's scratch mask (augment). The node rows'
	// zero-reduced-cost cells (walk): row i's are the mask
	// zeroMask[i·w:][:w] over the n columns, w = ⌈n/64⌉, valid while
	// zeroTag[i] is epoch and the row's base has the bits zeroBase[i];
	// zeroOK[i] is false when the row has a negative reduced cost. epoch
	// moves whenever a column potential does, and at every startSolve, and
	// never goes back, so no entry outlives the potentials or the solve it
	// was made under.
	cand             []uint64
	zeroMask         []uint64
	zeroOK           []bool
	zeroTag          []uint64
	zeroBase         []uint64
	epoch            uint64
	searches, popped int // full searches and column pops since load
	// solves counts assignment problems solved since load: what the
	// ensemble is held to (two per fallback, none when A* finishes).
	solves int
}

// maxPooledArenaBytes caps what one pooled arena may pin. Budgeted calls
// on the corpus' working sizes stay far below it (a budget-30 A* on
// 26-node pairs holds ~35 KB of candidates, the 26x26 cost block 5 KB);
// an unbudgeted Exact can grow the candidate list to millions of records,
// and that arena is left to the collector instead of the pool.
const maxPooledArenaBytes = 1 << 20

// maxPooledArenas caps how many idle arenas the pool keeps: one per
// concurrent caller up to this many, beyond which a caller allocates its
// arena and release drops it.
const maxPooledArenas = 64

// arenaPool is the stack of idle arenas. It is deliberately not a
// sync.Pool: the collector empties a sync.Pool of whatever was not drawn
// for two cycles, and a query spends the time between its GED calls in
// model code that allocates — on aids_ens the collector runs ~7 times per
// query, the pool lost its arena ~8 times per query, and every loss meant
// ~100 KB of buffers regrown from nothing at moments set by GC timing,
// which showed as run-to-run spread. An arena here stays until it is drawn;
// what the pool can pin is bounded by the two caps above. The most
// recently released arena, the one still in cache, is drawn first. The
// lock is held for a few instructions per GED call of tens of
// microseconds and up.
var arenaPool struct {
	mu   sync.Mutex
	n    int
	idle [maxPooledArenas]*pairCtx
}

// acquire draws an arena from the pool and loads the pair oriented
// smaller-graph-first. The caller hands it back with release on its normal
// return path only: a kernel that panics leaves its half-written arena to
// the collector.
func acquire(g, h *graph.Graph) *pairCtx {
	if g.N() > h.N() {
		c := acquireAsGiven(h, g)
		c.swapped = true
		return c
	}
	return acquireAsGiven(g, h)
}

// acquireAsGiven is acquire without the orientation: it pops the pool, or
// allocates an arena when the pool is empty, and loads the pair.
func acquireAsGiven(g, h *graph.Graph) *pairCtx {
	arenaGets.Add(1)
	var c *pairCtx
	p := &arenaPool
	p.mu.Lock()
	if p.n > 0 {
		p.n--
		c, p.idle[p.n] = p.idle[p.n], nil
	}
	p.mu.Unlock()
	if c == nil {
		arenaNews.Add(1)
		// A pool miss: one arena per concurrent caller, then reused for the life of the process.
		c = &pairCtx{}
	}
	c.load(g, h)
	return c
}

// release returns the arena to the pool without the graphs, or drops it
// when its buffers have outgrown maxPooledArenaBytes or the pool is full.
func release(c *pairCtx) {
	c.g, c.h = nil, nil
	if c.footprint() > maxPooledArenaBytes {
		return
	}
	p := &arenaPool
	p.mu.Lock()
	if p.n < maxPooledArenas {
		p.idle[p.n] = c
		p.n++
	}
	p.mu.Unlock()
}

// footprint is the number of bytes the arena's growable buffers hold. The
// per-node vectors are left out: they are linear in the graph size, and
// every buffer that can outgrow them is counted.
func (c *pairCtx) footprint() int {
	const candBytes, stateBytes = int(unsafe.Sizeof(searchCand{})), int(unsafe.Sizeof(searchState{}))
	return cap(c.cands)*candBytes + (cap(c.frontier)+cap(c.next))*stateBytes +
		8*(cap(c.cost)+cap(c.hAdj)+cap(c.usedA)+cap(c.usedB)+cap(c.img)+cap(c.seq)+cap(c.zeroMask)) +
		4*(cap(c.heap)+cap(c.suffixHist)+cap(c.phiA)+cap(c.phiB))
}

// intern returns the dense id of label l, assigning the next id on first
// sight. The table is the arena's own, sized to the labels of the pair it
// holds and emptied by load, so no request graph grows anything that
// outlives its call; a label's id depends only on the order of first sight,
// as with a map.
func (c *pairCtx) intern(l string) int32 {
	mask := uint32(len(c.labelSlot) - 1)
	i := labelHash(l) & mask
	for {
		id := c.labelSlot[i] - 1
		if id < 0 {
			break
		}
		if c.labels[id] == l {
			return id
		}
		i = (i + 1) & mask
	}
	id := int32(c.nLabels)
	c.labelSlot[i] = id + 1
	c.labels = append(c.labels, l)
	c.nLabels++
	return id
}

// labelHash is FNV-1a over the label's bytes.
func labelHash(l string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(l); i++ {
		h = (h ^ uint32(l[i])) * 16777619
	}
	return h
}

// load points the arena at (g, h) as given and computes what every kernel
// needs: interned labels and h's adjacency bitset.
func (c *pairCtx) load(g, h *graph.Graph) {
	c.g, c.h, c.swapped = g, h, false
	c.solves, c.searches, c.popped = 0, 0, 0
	c.gN, c.hN = g.N(), h.N()
	c.hWords = (c.hN + 63) / 64
	c.hM = int32(h.M())

	// At most gN+hN labels: a table at least twice that keeps every probe
	// sequence short and never full.
	c.labelSlot = grow(c.labelSlot, max(16, 1<<bits.Len(uint(2*(c.gN+c.hN)))))
	clear(c.labelSlot)
	clear(c.labels)
	c.labels = c.labels[:0]
	c.nLabels = 0
	c.gLab = grow(c.gLab, c.gN)
	for u := 0; u < c.gN; u++ {
		c.gLab[u] = c.intern(g.Label(u))
	}
	c.hLab = grow(c.hLab, c.hN)
	for x := 0; x < c.hN; x++ {
		c.hLab[x] = c.intern(h.Label(x))
	}

	c.hAdj = grow(c.hAdj, c.hN*c.hWords)
	clear(c.hAdj)
	for x := 0; x < c.hN; x++ {
		row := c.hAdj[x*c.hWords : (x+1)*c.hWords]
		for _, y := range h.Neighbors(x) {
			row[y/64] |= 1 << (y % 64)
		}
	}
}

// hasEdgeH reports whether h joins x and y.
func (c *pairCtx) hasEdgeH(x, y int32) bool {
	return c.hAdj[int(x)*c.hWords+int(y/64)]&(1<<(y%64)) != 0
}

// prepSearch computes the tables A* and beam search share: the
// degree-descending processing order of g, the suffix label histograms and
// suffix edge counts behind the admissible heuristic, and h's label
// histogram.
func (c *pairCtx) prepSearch() {
	g := c.g
	// Insertion sort moving strictly greater degrees only, so equal
	// degrees keep ascending-id order.
	c.order = grow(c.order, c.gN)
	for i := range c.order {
		c.order[i] = int32(i)
	}
	for i := 1; i < c.gN; i++ {
		for j := i; j > 0 && g.Degree(int(c.order[j])) > g.Degree(int(c.order[j-1])); j-- {
			c.order[j], c.order[j-1] = c.order[j-1], c.order[j]
		}
	}
	c.pos = grow(c.pos, c.gN)
	for i, u := range c.order {
		c.pos[u] = int32(i)
	}

	L := c.nLabels
	c.suffixHist = grow(c.suffixHist, (c.gN+1)*L)
	clear(c.suffixHist[c.gN*L:])
	for i := c.gN - 1; i >= 0; i-- {
		row, prev := c.suffixHist[i*L:(i+1)*L], c.suffixHist[(i+1)*L:(i+2)*L]
		copy(row, prev)
		row[c.gLab[c.order[i]]]++
	}
	c.suffixEdges = grow(c.suffixEdges, c.gN+1)
	c.suffixEdges[c.gN] = 0
	for i := c.gN - 1; i >= 0; i-- {
		c.suffixEdges[i] = c.suffixEdges[i+1]
		u := int(c.order[i])
		for _, v := range g.Neighbors(u) {
			if c.pos[v] > int32(i) {
				c.suffixEdges[i]++
			}
		}
	}

	c.hHist = grow(c.hHist, L)
	clear(c.hHist)
	for x := 0; x < c.hN; x++ {
		c.hHist[c.hLab[x]]++
	}
	c.usedHist = grow(c.usedHist, L)
	c.img = grow(c.img, c.hWords)
}

// rootState returns the empty partial mapping in arena slot A0.
func (c *pairCtx) rootState() searchState {
	c.phiA = grow(c.phiA, c.gN)
	c.usedA = grow(c.usedA, c.hWords)
	s := searchState{remEdges: c.hM, phi: c.phiA[:c.gN], used: c.usedA[:c.hWords]}
	for i := range s.phi {
		s.phi[i] = notProcessed
	}
	clear(s.used)
	clear(c.usedHist)
	return s
}

// grow returns s resized to n, reusing its backing array when the capacity
// suffices (contents are unspecified).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		// Amortized growth: nothing allocates once the pooled arena reaches working size.
		return make([]T, n)
	}
	return s[:n]
}
