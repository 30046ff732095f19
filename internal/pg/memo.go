package pg

import (
	"math"
	"sync"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
)

// memoShards is the number of lock stripes in memo. The parallel index
// build hits the memo from every worker; with a single mutex the workers
// serialize on cache lookups even though the GED computations themselves
// run concurrently.
const memoShards = 64

type memoShard struct {
	mu    sync.Mutex
	cache pairTable
}

// pairTable is the memo of one stripe: an open-addressing hash table from
// a packed id pair to its distance, 16 bytes a slot, doubled at 3/4 full.
// A map[[2]int]float64 held the same entries at ~85 resident bytes each
// once its tables (each below the allocator's large-object size) had grown
// and split a few times; under mutation the memo only grows, by ~150 pairs
// per write, and was the largest thing a writable index added to its
// process (5 MB after ~550 writes on a 640-graph index). This table costs
// 21-43 bytes a pair and is one allocation per stripe.
type pairTable struct {
	slots []pairSlot
	n     int
}

// pairSlot holds key+1, so that the zero slot is empty.
type pairSlot struct {
	key1 uint64
	d    float64
}

// find returns key1's slot, or the empty slot where it would go (linear
// probing; the table is never full).
func (t *pairTable) find(key1 uint64) *pairSlot {
	mask := uint64(len(t.slots) - 1)
	for i := (key1 * 0x9e3779b97f4a7c15) >> 32 & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.key1 == key1 || s.key1 == 0 {
			return s
		}
	}
}

func (t *pairTable) get(key1 uint64) (float64, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	s := t.find(key1)
	return s.d, s.key1 == key1
}

func (t *pairTable) put(key1 uint64, d float64) {
	if 4*(t.n+1) > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]pairSlot, max(16, 2*len(old)))
		for _, s := range old {
			if s.key1 != 0 {
				*t.find(s.key1) = s
			}
		}
	}
	s := t.find(key1)
	if s.key1 == 0 {
		t.n++
	}
	*s = pairSlot{key1: key1, d: d}
}

// memo is the build metric of an HNSW: it memoizes a metric by (g.ID,
// h.ID) pairs when both ids are non-negative (and fit 32 bits), so the
// build and the write path pay each pairwise GED at most once. The memo is
// sharded across lock stripes, so Distance is safe for concurrent use.
type memo struct {
	metric ged.Metric
	shards [memoShards]memoShard
}

func newMemo(m ged.Metric) *memo { return &memo{metric: m} }

// shard picks the lock stripe for a sorted id pair, mixing both ids so
// consecutive pairs spread across stripes.
func (c *memo) shard(lo, hi int) *memoShard {
	h := uint64(lo)*0x9e3779b97f4a7c15 ^ uint64(hi)*0xbf58476d1ce4e5b9
	return &c.shards[(h>>32)&(memoShards-1)]
}

// Distance implements ged.Metric, caching the computation.
func (c *memo) Distance(g, h *graph.Graph) float64 {
	lo, hi := g.ID, h.ID
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo < 0 || hi >= math.MaxUint32 {
		return c.metric.Distance(g, h)
	}
	key1 := (uint64(lo)<<32 | uint64(hi)) + 1
	sh := c.shard(lo, hi)
	sh.mu.Lock()
	d, ok := sh.cache.get(key1)
	sh.mu.Unlock()
	if ok {
		return d
	}
	d = c.metric.Distance(g, h)
	sh.mu.Lock()
	sh.cache.put(key1, d)
	sh.mu.Unlock()
	return d
}
