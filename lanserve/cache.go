package lanserve

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// resultCache is a fixed-capacity cache of finished search responses,
// each stored as the exact bytes a hit writes, with TinyLFU admission
// (Einziger, Friedman and Manes, "TinyLFU: A Highly Efficient Cache
// Admission Policy", ACM ToS 2017) in front of an LRU.
//
// A key is the index epoch plus the SHA-256 of the request body
// (bodyKey), so a hit is a byte-identical replay of a request that
// succeeded against the same index version. A hit is therefore exactly
// the search it replaces: LAN's answers depend on the query's node order,
// so a structural key (such as a WL hash) would give a renumbered query
// another graph's answer.
//
// Every lookup counts its digest in a count-min sketch (freq). A put into
// a full cache evicts the LRU tail only if the newcomer's estimated
// frequency is strictly above the tail's; otherwise the answer is not
// stored. One-off requests therefore cannot flush popular answers, which
// under plain LRU they do on every scan. The sketch counts digests, not
// epochs, so a query's popularity outlives a write.
//
// The cache holds entries of one epoch only: the newest any caller has
// passed in, so items is keyed by digest alone. A get or put at a newer
// epoch empties it (its entries answer a superseded index), and a put at
// an older epoch — a search that began before a write and finished after
// it — is dropped, so a stale answer is never served and never holds a
// slot a live one could use. An index that does not expose an epoch keys
// everything at 0 and must stay immutable.
// Entries hold only the digest and the encoded response, never the
// request body, so memory is bounded by the capacity and the response
// size.
type resultCache struct {
	mu    sync.Mutex
	max   int
	epoch uint64
	ll    *list.List // front = most recently used
	items map[digest]*list.Element
	freq  sketch
}

// digest is the SHA-256 of one request body.
type digest [sha256.Size]byte

// cacheKey names one (index version, request body) pair.
type cacheKey struct {
	epoch uint64
	sum   digest
}

type cacheEntry struct {
	sum  digest
	body []byte // the encoded hit response, "cached": true
}

func newResultCache(max int) *resultCache {
	if max <= 0 {
		return nil
	}
	return &resultCache{
		max:   max,
		ll:    list.New(),
		items: make(map[digest]*list.Element),
		freq:  newSketch(max),
	}
}

// bodyKey derives the key of one (index version, request body) pair.
func bodyKey(epoch uint64, body []byte) cacheKey {
	return cacheKey{epoch: epoch, sum: sha256.Sum256(body)}
}

// advance empties the cache when epoch is newer than its entries' and
// reports whether epoch is current (false: older than the entries').
// The caller holds c.mu.
func (c *resultCache) advance(epoch uint64) bool {
	if epoch > c.epoch {
		c.epoch = epoch
		c.ll.Init()
		clear(c.items)
	}
	return epoch == c.epoch
}

// get counts one request for key and returns its stored response,
// refreshing its recency.
func (c *resultCache) get(key cacheKey) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.freq.add(&key.sum)
	if !c.advance(key.epoch) {
		return nil, false
	}
	el, ok := c.items[key.sum]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put stores (or refreshes) key's response and reports whether it did.
// In a full cache the newcomer replaces the least recently used entry
// only if it has been asked for more often; a put at an epoch older than
// the cache's is dropped. body must not be modified afterwards.
func (c *resultCache) put(key cacheKey, body []byte) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.advance(key.epoch) {
		return false
	}
	if el, ok := c.items[key.sum]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		return true
	}
	if c.ll.Len() >= c.max {
		tail := c.ll.Back()
		victim := tail.Value.(*cacheEntry)
		if c.freq.estimate(&key.sum) <= c.freq.estimate(&victim.sum) {
			return false
		}
		c.ll.Remove(tail)
		delete(c.items, victim.sum)
	}
	c.items[key.sum] = c.ll.PushFront(&cacheEntry{sum: key.sum, body: body})
	return true
}

// len returns the number of cached entries.
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// sketch is a count-min sketch of request frequency: four rows of uint8
// counters that saturate at 15, row i indexed by bytes 8i…8i+7 of the
// digest (SHA-256 makes the four indexes independent). The width is the
// next power of two ≥ 16 × capacity, and every counter is halved after
// 10 × capacity additions (TinyLFU's reset), so the sketch follows
// recent popularity and a once-hot key fades. It allocates only in
// newSketch: 64 to 128 bytes per cache entry.
type sketch struct {
	rows   [sketchRows][]uint8
	mask   uint64
	adds   int
	period int
}

const (
	sketchRows = 4
	sketchMax  = 15
)

func newSketch(capacity int) sketch {
	width := 1
	for width < 16*capacity {
		width <<= 1
	}
	cells := make([]uint8, sketchRows*width)
	s := sketch{mask: uint64(width - 1), period: 10 * capacity}
	for i := range s.rows {
		s.rows[i] = cells[i*width : (i+1)*width]
	}
	return s
}

func (s *sketch) cell(d *digest, row int) *uint8 {
	return &s.rows[row][binary.LittleEndian.Uint64(d[8*row:])&s.mask]
}

// add counts one occurrence of d, halving every counter once the period
// has elapsed.
func (s *sketch) add(d *digest) {
	for i := range s.rows {
		if c := s.cell(d, i); *c < sketchMax {
			*c++
		}
	}
	if s.adds++; s.adds >= s.period {
		s.adds = 0
		for _, row := range s.rows {
			for j := range row {
				row[j] >>= 1
			}
		}
	}
}

// estimate returns d's count: the smallest of its counters, which
// collisions can only raise.
func (s *sketch) estimate(d *digest) uint8 {
	n := uint8(sketchMax)
	for i := range s.rows {
		n = min(n, *s.cell(d, i))
	}
	return n
}
