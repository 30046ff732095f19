package lanserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/graph"
)

// testQuery is the handler tests' /search body, open for extra fields.
const testQuery = `{"query":{"labels":["A","B"],"edges":[[0,1]]},"k":2`

func testQueryJSON(t *testing.T, extra string) *bytes.Reader {
	t.Helper()
	return bytes.NewReader([]byte(testQuery + extra + `}`))
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Index == nil {
		cfg.Index = &fakeSearcher{
			results: []lan.Result{{ID: 3, Dist: 1}, {ID: 7, Dist: 2}},
			stats:   lan.Stats{NDC: 5, Explored: 2},
			n:       50,
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func doSearch(s *Server, body *bytes.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", body))
	return rec
}

func TestHandlerSearchOKAndCacheHit(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := doSearch(s, testQueryJSON(t, ""))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", rec.Code, rec.Body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached || len(resp.Results) != 2 || resp.Stats.NDC != 5 {
		t.Fatalf("bad response: %+v", resp)
	}
	if resp.Stats.PruningRate != 1-5.0/50 {
		t.Fatalf("pruning rate = %v", resp.Stats.PruningRate)
	}

	// Same query again: served from cache.
	rec = doSearch(s, testQueryJSON(t, ""))
	var resp2 SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached {
		t.Fatalf("expected cache hit: %+v", resp2)
	}
	if s.Metrics().CacheHits() != 1 {
		t.Fatalf("cache hits = %d; want 1", s.Metrics().CacheHits())
	}

	// The hit is visible on /metrics.
	mrec := httptest.NewRecorder()
	s.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(mrec.Body.String(), "lanserve_cache_hits_total 1") {
		t.Fatalf("metrics missing cache hit:\n%s", mrec.Body)
	}
}

func TestHandlerNoCacheIsFresh(t *testing.T) {
	idx := &fakeSearcher{results: []lan.Result{{ID: 3, Dist: 1}}, n: 50}
	s := newTestServer(t, Config{Index: idx})
	for i := 0; i < 2; i++ {
		rec := doSearch(s, testQueryJSON(t, `,"no_cache":true`))
		if rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), `"cached":true`) {
			t.Fatalf("no_cache request %d: status %d body=%s; want a fresh 200", i, rec.Code, rec.Body)
		}
	}
	if got := idx.calls.Load(); got != 2 {
		t.Fatalf("searcher ran %d times; want 2 (no_cache never reads the cache)", got)
	}
	if got := s.cache.len(); got != 0 {
		t.Fatalf("cache holds %d entries after no_cache requests; want 0", got)
	}
}

// TestHandlerBodyTooLarge413: every endpoint that reads a body answers
// one over MaxBodyBytes with 413, counts it, and applies nothing.
func TestHandlerBodyTooLarge413(t *testing.T) {
	for _, path := range []string{"/search", "/insert", "/delete"} {
		fw := &fakeWriter{}
		s := newTestServer(t, Config{MaxBodyBytes: 32, Writer: fw})
		for i := 0; i < 2; i++ {
			rec := postJSON(t, s, path, testQuery+`}`)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s request %d: status %d body=%s; want 413", path, i, rec.Code, rec.Body)
			}
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || !strings.Contains(er.Error, "over 32 bytes") {
				t.Fatalf("%s request %d: error body %s (%v); want one naming the limit", path, i, rec.Body, err)
			}
			if path == "/search" && er.QueryID == "" {
				t.Fatalf("request %d: error body %s; want one naming the query", i, rec.Body)
			}
		}
		if got := s.cache.len(); got != 0 {
			t.Fatalf("%s: cache holds %d entries after 413 replies; want 0", path, got)
		}
		if fw.inserts != 0 || fw.deletes != 0 {
			t.Fatalf("%s: %d inserts and %d deletes applied from bodies over the limit", path, fw.inserts, fw.deletes)
		}
		var sb strings.Builder
		if _, err := s.Metrics().WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), `lanserve_errors_total{code="413"} 2`) {
			t.Fatalf("%s: metrics missing the 413s:\n%s", path, sb.String())
		}
	}
}

func TestHandlerBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []string{
		`not json`,
		`{"k":3}`, // no query
		`{"query":{"labels":[],"edges":[]},"k":3}`,    // empty graph
		`{"query":{"labels":["A"],"edges":[]},"k":0}`, // k = 0
		`{"query":{"labels":["A"],"edges":[]},"k":1,"routing":"warp"}`,
		`{"query":{"labels":["A"],"edges":[]},"k":1,"initial":"teleport"}`,
	}
	for _, body := range cases {
		rec := doSearch(s, bytes.NewReader([]byte(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status = %d; want 400", body, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /search = %d; want 405", rec.Code)
	}
}

// TestHandlerStrategyNames: every public strategy's wire name reaches the
// index as that strategy, an absent one as the default, and a name the
// public API does not offer — lan_basic, the ablation's name, among them —
// is answered 400 with the names it wants.
func TestHandlerStrategyNames(t *testing.T) {
	idx := &optionsSearcher{}
	s := newTestServer(t, Config{Index: idx})
	routings := map[string]lan.RoutingStrategy{"": lan.LANRoute, "lan": lan.LANRoute, "baseline": lan.BaselineRoute, "oracle": lan.OracleRoute}
	initials := map[string]lan.InitialStrategy{"": lan.LANIS, "lan": lan.LANIS, "hnsw": lan.HNSWIS, "rand": lan.RandIS}
	for rn, rt := range routings {
		for in, is := range initials {
			extra := fmt.Sprintf(`,"routing":%q,"initial":%q,"no_cache":true`, rn, in)
			if rec := doSearch(s, testQueryJSON(t, extra)); rec.Code != http.StatusOK {
				t.Fatalf("routing %q, initial %q: status = %d body=%s", rn, in, rec.Code, rec.Body)
			}
			if idx.so.Routing != rt || idx.so.Initial != is {
				t.Errorf("routing %q, initial %q searched with %v, %v; want %v, %v", rn, in, idx.so.Routing, idx.so.Initial, rt, is)
			}
		}
	}
	for _, c := range []struct{ extra, want string }{
		{`,"initial":"lan_basic"`, `unknown initial \"lan_basic\" (want lan, hnsw or rand)`},
		{`,"initial":"HNSW"`, `unknown initial \"HNSW\" (want lan, hnsw or rand)`},
		{`,"routing":"lan_basic"`, `unknown routing \"lan_basic\" (want lan, baseline or oracle)`},
		{`,"routing":"np_route"`, `unknown routing \"np_route\" (want lan, baseline or oracle)`},
	} {
		rec := doSearch(s, testQueryJSON(t, c.extra))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), c.want) {
			t.Errorf("%s: status = %d body=%s; want 400 with %s", c.extra, rec.Code, rec.Body, c.want)
		}
	}
}

// TestHandlerClampsKAndBeam: a request's k is clamped to MaxK, its beam
// raised to k and clamped to 4096.
func TestHandlerClampsKAndBeam(t *testing.T) {
	idx := &optionsSearcher{}
	s := newTestServer(t, Config{Index: idx, MaxK: 50})
	for _, c := range []struct {
		body            string
		wantK, wantBeam int
	}{
		{`{"query":{"labels":["A"],"edges":[]},"k":3,"no_cache":true}`, 3, 3},
		{`{"query":{"labels":["A"],"edges":[]},"k":3,"beam":2,"no_cache":true}`, 3, 3},
		{`{"query":{"labels":["A"],"edges":[]},"k":900,"beam":10,"no_cache":true}`, 50, 50},
		{`{"query":{"labels":["A"],"edges":[]},"k":3,"beam":5000,"no_cache":true}`, 3, 4096},
	} {
		if rec := doSearch(s, bytes.NewReader([]byte(c.body))); rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d body=%s", c.body, rec.Code, rec.Body)
		}
		if idx.so.K != c.wantK || idx.so.Beam != c.wantBeam {
			t.Errorf("%s: searched with k %d, beam %d; want %d, %d", c.body, idx.so.K, idx.so.Beam, c.wantK, c.wantBeam)
		}
	}
}

func TestHandlerDeadlineReturns504(t *testing.T) {
	s := newTestServer(t, Config{
		Index: &fakeSearcher{delay: 200 * time.Millisecond, n: 10},
	})
	start := time.Now()
	rec := doSearch(s, testQueryJSON(t, `,"timeout_ms":1`))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d body=%s; want 504", rec.Code, rec.Body)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("504 took %s; deadline not enforced", elapsed)
	}
	// The pool is free again: an unconstrained request succeeds.
	if rec := doSearch(s, testQueryJSON(t, `,"no_cache":true`)); rec.Code != http.StatusOK {
		t.Fatalf("follow-up = %d body=%s; want 200", rec.Code, rec.Body)
	}
}

func TestHandlerAdmissionControl429(t *testing.T) {
	gate := make(chan struct{})
	slow := &slowSearcher{gate: gate, n: 10}
	s := newTestServer(t, Config{Index: slow, Workers: 1, QueueDepth: 1, CacheSize: -1})

	// Fill the worker and the queue with two in-flight requests.
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = doSearch(s, testQueryJSON(t, "")).Code
		}(i)
	}
	waitFor(t, func() bool { return slow.started.Load() >= 1 })
	waitFor(t, func() bool { return len(s.pool.admit) == 2 })

	// The system is full: the third request is refused immediately.
	start := time.Now()
	rec := doSearch(s, testQueryJSON(t, ""))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d; want 429", rec.Code)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("429 was not immediate")
	}

	// In-flight queries still complete once unblocked.
	close(gate)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("in-flight request %d = %d; want 200", i, code)
		}
	}

	var sb strings.Builder
	if _, err := s.Metrics().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "lanserve_rejected_total 1") {
		t.Fatalf("metrics missing rejection:\n%s", sb.String())
	}
}

func TestHandlerPanicRecoveredAs500(t *testing.T) {
	s := newTestServer(t, Config{Index: &panickySearcher{}})
	rec := doSearch(s, testQueryJSON(t, ""))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d; want 500", rec.Code)
	}
	var sb strings.Builder
	if _, err := s.Metrics().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "lanserve_panics_total 1") {
		t.Fatalf("panic not counted:\n%s", sb.String())
	}
	// The server is still alive.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz after panic = %d", rec.Code)
	}
}

func TestReadyzDraining(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz = %d; want 200", rec.Code)
	}
	s.BeginDrain()
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d; want 503", rec.Code)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// slowSearcher blocks until its gate closes (or the context dies).
type slowSearcher struct {
	gate    chan struct{}
	started atomic.Int32
	n       int
}

func (s *slowSearcher) SearchContext(ctx context.Context, q *graph.Graph, so lan.SearchOptions) ([]lan.Result, lan.Stats, error) {
	s.started.Add(1)
	select {
	case <-s.gate:
		return []lan.Result{{ID: 1, Dist: 0}}, lan.Stats{NDC: 1}, nil
	case <-ctx.Done():
		return nil, lan.Stats{}, ctx.Err()
	}
}

func (s *slowSearcher) Len() int { return s.n }

// panickySearcher exercises the recovery middleware.
type panickySearcher struct{}

func (p *panickySearcher) SearchContext(ctx context.Context, q *graph.Graph, so lan.SearchOptions) ([]lan.Result, lan.Stats, error) {
	panic(fmt.Sprintf("query with %d nodes hit a bug", q.N()))
}

func (p *panickySearcher) Len() int { return 1 }

// optionsSearcher records the options of the last search it answered.
type optionsSearcher struct {
	so lan.SearchOptions
}

func (o *optionsSearcher) SearchContext(_ context.Context, _ *graph.Graph, so lan.SearchOptions) ([]lan.Result, lan.Stats, error) {
	o.so = so
	return []lan.Result{{ID: 1, Dist: 0}}, lan.Stats{NDC: 1}, nil
}

func (o *optionsSearcher) Len() int { return 2 }
