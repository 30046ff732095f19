package lanserve

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/graph"
)

// testKey is the key of the i-th distinct request body of a family.
func testKey(family string, i int) cacheKey {
	return bodyKey(0, []byte(fmt.Sprintf("%s-%d", family, i)))
}

// lookup does what the handler does with one request: a hit, or a miss
// followed by a put of the computed answer.
func lookup(c *resultCache, k cacheKey) bool {
	if _, ok := c.get(k); ok {
		return true
	}
	c.put(k, k.sum[:])
	return false
}

// lruRef is plain LRU over the same lookups: the policy the admission
// cache replaced, kept here as the reference it must beat.
type lruRef struct {
	max   int
	ll    *list.List
	items map[cacheKey]*list.Element
}

func (r *lruRef) lookup(k cacheKey) bool {
	if el, ok := r.items[k]; ok {
		r.ll.MoveToFront(el)
		return true
	}
	r.items[k] = r.ll.PushFront(k)
	if r.ll.Len() > r.max {
		delete(r.items, r.ll.Remove(r.ll.Back()).(cacheKey))
	}
	return false
}

// hitShares replays n requests drawn by next over a pool of keys against
// the admission cache and the LRU reference, both at capacity max.
func hitShares(max, n int, keys []cacheKey, next func() int) (admission, lru float64) {
	c := newResultCache(max)
	ref := &lruRef{max: max, ll: list.New(), items: make(map[cacheKey]*list.Element)}
	var hits, refHits int
	for i := 0; i < n; i++ {
		k := keys[next()]
		if lookup(c, k) {
			hits++
		}
		if ref.lookup(k) {
			refHits++
		}
	}
	return float64(hits) / float64(n), float64(refHits) / float64(n)
}

func TestResultCacheAdmission(t *testing.T) {
	t.Run("ScanResistance", func(t *testing.T) {
		c := newResultCache(8)
		for round := 0; round < 4; round++ {
			for i := 0; i < 8; i++ {
				lookup(c, testKey("hot", i))
			}
		}
		for i := 0; i < 100; i++ {
			lookup(c, testKey("scan", i))
		}
		for i := 0; i < 8; i++ {
			if _, ok := c.get(testKey("hot", i)); !ok {
				t.Errorf("hot key %d flushed by a scan of one-off requests", i)
			}
		}
	})

	t.Run("Adaptivity", func(t *testing.T) {
		// The cache fills with one-offs; a key asked from then on must
		// win a slot within a few lookups.
		const maxLookups = 3
		c := newResultCache(8)
		for i := 0; i < 100; i++ {
			lookup(c, testKey("once", i))
		}
		if c.len() != 8 {
			t.Fatalf("len = %d; want 8", c.len())
		}
		k := testKey("new", 0)
		for n := 1; ; n++ {
			if lookup(c, k) {
				break
			}
			if n == maxLookups {
				t.Fatalf("a key asked %d times is still not cached", n)
			}
		}
	})

	t.Run("SeededStreams", func(t *testing.T) {
		// zipf(1.5) over 512 queries at capacity 16 is serve_zipf's
		// traffic; uniform traffic has no popular keys to protect.
		const (
			pool     = 512
			capacity = 16
			requests = 20000
		)
		keys := make([]cacheKey, pool)
		for i := range keys {
			keys[i] = testKey("q", i)
		}
		for seed := int64(1); seed <= 3; seed++ {
			r := rand.New(rand.NewSource(seed))
			z := rand.NewZipf(r, 1.5, 1, pool-1)
			adm, lru := hitShares(capacity, requests, keys, func() int { return int(z.Uint64()) })
			if adm < lru+0.03 {
				t.Errorf("seed %d zipf(1.5): hit share %.3f; want ≥ LRU's %.3f + 0.03", seed, adm, lru)
			}
			r = rand.New(rand.NewSource(seed))
			adm, lru = hitShares(capacity, requests, keys, func() int { return r.Intn(pool) })
			if adm < lru-0.01 {
				t.Errorf("seed %d uniform: hit share %.3f; want ≥ LRU's %.3f - 0.01", seed, adm, lru)
			}
		}
	})
}

// epochSearcher stands in for a writable index: the test moves its epoch
// as a write would. Every answer names the epoch it was computed at, and
// searches of three-node queries block until gate closes.
type epochSearcher struct {
	epoch atomic.Uint64
	gate  chan struct{}
}

func (e *epochSearcher) SearchContext(ctx context.Context, q *graph.Graph, so lan.SearchOptions) ([]lan.Result, lan.Stats, error) {
	at := e.epoch.Load()
	if q.N() == 3 {
		select {
		case <-e.gate:
		case <-ctx.Done():
			return nil, lan.Stats{}, ctx.Err()
		}
	}
	return []lan.Result{{ID: int(at), Dist: 0}}, lan.Stats{NDC: 1}, nil
}

func (e *epochSearcher) Len() int { return 10 }

func (e *epochSearcher) Epoch() uint64 { return e.epoch.Load() }

// epochQuery is a /search body over an n-node path labelled label.
func epochQuery(label string, n int) string {
	labels := make([]string, n)
	edges := make([]string, n-1)
	for i := range labels {
		labels[i] = `"` + label + `"`
	}
	for i := range edges {
		edges[i] = fmt.Sprintf("[%d,%d]", i, i+1)
	}
	return `{"query":{"labels":[` + strings.Join(labels, ",") + `],"edges":[` + strings.Join(edges, ",") + `]},"k":1}`
}

// searchAnswer posts body and returns whether the answer was a cache hit
// and the epoch its result names.
func searchAnswer(t *testing.T, s *Server, body string) (cached bool, epoch int) {
	t.Helper()
	rec := doSearch(s, bytes.NewReader([]byte(body)))
	var resp SearchResponse
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d body=%s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Results) != 1 {
		t.Fatalf("body %s: %v", rec.Body, err)
	}
	return resp.Cached, resp.Results[0].ID
}

func TestResultCacheEpochs(t *testing.T) {
	t.Run("StraddlingSearchLeavesLiveEntries", func(t *testing.T) {
		idx := &epochSearcher{gate: make(chan struct{})}
		s := newTestServer(t, Config{Index: idx, CacheSize: 2, Workers: 4})
		slow, a, b := epochQuery("S", 3), epochQuery("A", 2), epochQuery("B", 2)

		// A search of slow starts at epoch 0, and two identical requests
		// join it, so slow is the most frequent request when it lands.
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rec := doSearch(s, bytes.NewReader([]byte(slow))); rec.Code != http.StatusOK {
					t.Errorf("straddling search: status %d", rec.Code)
				}
			}()
		}
		waitFor(t, func() bool {
			s.flights.mu.Lock()
			defer s.flights.mu.Unlock()
			f := s.flights.flights[bodyKey(0, []byte(slow))]
			return f != nil && f.waiters.Load() == 2
		})

		idx.epoch.Store(1) // a write lands mid-search
		for _, q := range []string{a, b} {
			if cached, _ := searchAnswer(t, s, q); cached {
				t.Fatal("first request after the write was a hit")
			}
		}
		close(idx.gate)
		wg.Wait()

		for _, q := range []string{a, b} {
			if cached, at := searchAnswer(t, s, q); !cached || at != 1 {
				t.Errorf("live entry: cached=%v epoch=%d; want a hit computed at epoch 1", cached, at)
			}
		}
		if !strings.Contains(metricsText(t, s), "lanserve_cache_admission_rejected_total 1") {
			t.Error("the straddling search's answer is not counted as rejected")
		}
	})

	t.Run("HotQueryAfterWriteIsCached", func(t *testing.T) {
		idx := &epochSearcher{}
		s := newTestServer(t, Config{Index: idx, CacheSize: 2})
		// Two requests made popular before the write fill the cache.
		for i := 0; i < 10; i++ {
			searchAnswer(t, s, epochQuery("A", 2))
			searchAnswer(t, s, epochQuery("B", 2))
		}
		idx.epoch.Store(1)
		hot := epochQuery("C", 2)
		if cached, _ := searchAnswer(t, s, hot); cached {
			t.Fatal("first request for a new query was a hit")
		}
		if cached, at := searchAnswer(t, s, hot); !cached || at != 1 {
			t.Fatalf("repeated query after a write: cached=%v epoch=%d; want a hit computed at epoch 1", cached, at)
		}
		if cached, at := searchAnswer(t, s, epochQuery("A", 2)); cached || at != 1 {
			t.Fatalf("pre-write entry served after the write: cached=%v epoch=%d", cached, at)
		}
	})
}

func metricsText(t *testing.T, s *Server) string {
	t.Helper()
	var sb strings.Builder
	if _, err := s.Metrics().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestResultCacheConcurrent drives get, put and epoch changes from 8
// goroutines (run it under -race): every hit must return the body stored
// under its own key at its own epoch, and the cache never outgrows its
// capacity.
func TestResultCacheConcurrent(t *testing.T) {
	const (
		workers  = 8
		ops      = 2000
		bodies   = 40
		capacity = 16
	)
	c := newResultCache(capacity)
	var epoch atomic.Uint64
	answer := func(e uint64, j int) []byte { return []byte(fmt.Sprintf("%d/%d", e, j)) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				if w == 0 && i%100 == 99 {
					epoch.Add(1)
				}
				e, j := epoch.Load(), r.Intn(bodies)
				if r.Intn(8) == 0 && e > 0 {
					e-- // a search that began before the latest write
				}
				k := bodyKey(e, []byte(fmt.Sprint(j)))
				if got, ok := c.get(k); ok {
					if want := answer(e, j); !bytes.Equal(got, want) {
						t.Errorf("hit for %q returned %q", want, got)
						return
					}
					continue
				}
				c.put(k, answer(e, j))
				if n := c.len(); n > capacity {
					t.Errorf("len = %d; capacity %d", n, capacity)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
