package lanserve

import (
	"sync"
	"sync/atomic"
)

// flightGroup deduplicates concurrent identical searches: when several
// requests with the same cache key arrive while none has finished, one
// (the leader) computes the answer and the rest (followers) wait for it
// instead of burning workers on the same GED computations. Flights are
// keyed by the result cache's key (bodyKey), so "identical" has exactly
// the cache's meaning — the same request bytes against the same index
// version; the group is only consulted between a cache miss and
// admission, so hits never touch it.
type flightGroup struct {
	mu      sync.Mutex
	flights map[cacheKey]*flight
}

// flight is one in-progress computation. resp is written once by the
// leader before done is closed (nil when the leader failed), so followers
// may read it without locking after <-done. waiters counts followers that
// joined — observability for tests and future gauges.
type flight struct {
	done    chan struct{}
	resp    *SearchResponse
	waiters atomic.Int32
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flights: make(map[cacheKey]*flight)}
}

// join returns the flight for key and whether the caller is its leader.
// The leader must call complete on every exit path — including failures —
// or followers would stall until their own deadlines expire.
func (g *flightGroup) join(key cacheKey) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[key]; ok {
		f.waiters.Add(1)
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	g.flights[key] = f
	return f, true
}

// complete publishes the leader's outcome (resp is nil when the search
// failed) and wakes every follower. The flight is unregistered first, so
// requests arriving after completion start a fresh flight — by then the
// result cache answers them anyway.
func (g *flightGroup) complete(key cacheKey, f *flight, resp *SearchResponse) {
	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	f.resp = resp
	close(f.done)
}
