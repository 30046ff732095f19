package lanserve

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// resultCache is a fixed-capacity LRU over finished search responses,
// each stored as the exact bytes a hit writes.
//
// Keys are the SHA-256 of the index epoch followed by the request body
// (bodyKey), so a hit is a byte-identical replay of a request that
// succeeded against the same index version. A hit is therefore exactly
// the search it replaces: LAN's answers depend on the query's node order,
// so a structural key (such as a WL hash) would give a renumbered query
// another graph's answer. The epoch makes invalidation lazy: every
// applied write bumps it, orphaning all earlier entries (lookups never see
// them again; the LRU evicts them in due course) without any sweep or
// coordination with the write path. An index that does not expose an
// epoch keys everything at 0 and must stay immutable. Entries hold only
// the digest and the encoded response, never the request body, so memory
// is bounded by the capacity and the response size.
type resultCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[digest]*list.Element
}

// digest is the SHA-256 bodyKey derives from one request.
type digest [sha256.Size]byte

type cacheEntry struct {
	key  digest
	body []byte // the encoded hit response, "cached": true
}

func newResultCache(max int) *resultCache {
	if max <= 0 {
		return nil
	}
	return &resultCache{max: max, ll: list.New(), items: make(map[digest]*list.Element)}
}

// bodyKey derives the key of one (index version, request body) pair.
func bodyKey(epoch uint64, body []byte) digest {
	var e [8]byte
	binary.LittleEndian.PutUint64(e[:], epoch)
	h := sha256.New()
	h.Write(e[:])
	h.Write(body)
	var k digest
	h.Sum(k[:0])
	return k
}

// get returns the stored response for key and refreshes its recency.
func (c *resultCache) get(key digest) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put inserts (or refreshes) key, evicting the least recently used entry
// beyond capacity. body must not be modified afterwards.
func (c *resultCache) put(key digest, body []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, body: body})
	c.items[key] = el
	if c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
	}
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
