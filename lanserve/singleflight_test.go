package lanserve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/graph"
)

// testFlight returns the in-progress flight for the canonical test query,
// if any — how the tests observe that followers have joined before they
// release the leader.
func testFlight(s *Server) *flight {
	key := bodyKey(s.indexEpoch(), []byte(testQuery+"}"))
	s.flights.mu.Lock()
	defer s.flights.mu.Unlock()
	return s.flights.flights[key]
}

func TestSingleflightSharesInflightResult(t *testing.T) {
	gate := make(chan struct{})
	slow := &slowSearcher{gate: gate, n: 10}
	s := newTestServer(t, Config{Index: slow, Workers: 4})

	const followers = 3
	codes := make([]int, followers+1)
	resps := make([]SearchResponse, followers+1)
	var wg sync.WaitGroup
	search := func(i int) {
		defer wg.Done()
		rec := doSearch(s, testQueryJSON(t, ""))
		codes[i] = rec.Code
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &resps[i]); err != nil {
				t.Error(err)
			}
		}
	}

	// Leader first: it must own the flight before the followers arrive.
	wg.Add(1)
	go search(0)
	waitFor(t, func() bool { return slow.started.Load() == 1 })

	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go search(i)
	}
	waitFor(t, func() bool {
		f := testFlight(s)
		return f != nil && f.waiters.Load() == followers
	})
	close(gate)
	wg.Wait()

	if got := slow.started.Load(); got != 1 {
		t.Fatalf("searcher ran %d times; want 1 (followers must share the flight)", got)
	}
	shared := 0
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d; want 200", i, code)
		}
		if resps[i].Stats.NDC != 1 || len(resps[i].Results) != 1 {
			t.Fatalf("request %d: response %+v does not match the leader's computation", i, resps[i])
		}
		if resps[i].Shared {
			shared++
		}
	}
	if shared != followers {
		t.Fatalf("%d shared responses; want %d", shared, followers)
	}
	if got := s.Metrics().SingleflightSharedTotal(); got != followers {
		t.Fatalf("singleflight counter = %d; want %d", got, followers)
	}
	var sb strings.Builder
	if _, err := s.Metrics().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "lanserve_singleflight_shared_total 3") {
		t.Fatalf("metrics missing singleflight counter:\n%s", sb.String())
	}
}

// failOnceSearcher blocks its first call on the gate and fails it; later
// calls succeed immediately.
type failOnceSearcher struct {
	gate  chan struct{}
	calls atomic.Int32
}

func (f *failOnceSearcher) SearchContext(ctx context.Context, q *graph.Graph, so lan.SearchOptions) ([]lan.Result, lan.Stats, error) {
	if f.calls.Add(1) == 1 {
		select {
		case <-f.gate:
			return nil, lan.Stats{}, context.DeadlineExceeded
		case <-ctx.Done():
			return nil, lan.Stats{}, ctx.Err()
		}
	}
	return []lan.Result{{ID: 2, Dist: 1}}, lan.Stats{NDC: 3}, nil
}

func (f *failOnceSearcher) Len() int { return 10 }

func TestSingleflightFollowerRecoversFromLeaderFailure(t *testing.T) {
	gate := make(chan struct{})
	idx := &failOnceSearcher{gate: gate}
	s := newTestServer(t, Config{Index: idx, Workers: 4})

	var wg sync.WaitGroup
	var leaderCode int
	wg.Add(1)
	go func() {
		defer wg.Done()
		leaderCode = doSearch(s, testQueryJSON(t, "")).Code
	}()
	waitFor(t, func() bool { return idx.calls.Load() == 1 })

	var followerCode int
	var followerResp SearchResponse
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := doSearch(s, testQueryJSON(t, ""))
		followerCode = rec.Code
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &followerResp); err != nil {
				t.Error(err)
			}
		}
	}()
	waitFor(t, func() bool {
		f := testFlight(s)
		return f != nil && f.waiters.Load() == 1
	})
	close(gate)
	wg.Wait()

	if leaderCode != http.StatusGatewayTimeout {
		t.Fatalf("leader status = %d; want 504", leaderCode)
	}
	// The follower must not inherit the leader's failure: it recomputes.
	if followerCode != http.StatusOK {
		t.Fatalf("follower status = %d; want 200", followerCode)
	}
	if followerResp.Shared || followerResp.Stats.NDC != 3 {
		t.Fatalf("follower response %+v; want a fresh (unshared) computation", followerResp)
	}
	if got := idx.calls.Load(); got != 2 {
		t.Fatalf("searcher ran %d times; want 2 (leader + recovering follower)", got)
	}
	if got := s.Metrics().SingleflightSharedTotal(); got != 0 {
		t.Fatalf("singleflight counter = %d; want 0", got)
	}
}

func TestSingleflightNoCacheBypasses(t *testing.T) {
	gate := make(chan struct{})
	slow := &slowSearcher{gate: gate, n: 10}
	s := newTestServer(t, Config{Index: slow, Workers: 4})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		doSearch(s, testQueryJSON(t, ""))
	}()
	waitFor(t, func() bool { return slow.started.Load() == 1 })

	// A no_cache request for the same query must start its own search
	// rather than wait on (or share) the in-flight one.
	wg.Add(1)
	go func() {
		defer wg.Done()
		doSearch(s, testQueryJSON(t, `,"no_cache":true`))
	}()
	waitFor(t, func() bool { return slow.started.Load() == 2 })
	if f := testFlight(s); f != nil && f.waiters.Load() != 0 {
		t.Fatalf("no_cache request joined the flight (%d waiters)", f.waiters.Load())
	}
	close(gate)
	wg.Wait()
	if got := s.Metrics().SingleflightSharedTotal(); got != 0 {
		t.Fatalf("singleflight counter = %d; want 0", got)
	}
}
