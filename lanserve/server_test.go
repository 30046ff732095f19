package lanserve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/graph"
)

func TestResultCacheDisabled(t *testing.T) {
	var c *resultCache // CacheSize < 0 yields a nil cache
	k := bodyKey(0, []byte("k"))
	c.put(k, []byte("{}"))
	if _, ok := c.get(k); ok {
		t.Fatal("nil cache returned a hit")
	}
	if c.len() != 0 {
		t.Fatal("nil cache non-empty")
	}
}

// TestCacheIsTransparent holds the result cache to the search it replaces,
// on a real index: a hit repeats the stored miss byte for byte, a query
// with its nodes renumbered is searched on its own (LAN's answer depends
// on node order), and failures are never stored.
func TestCacheIsTransparent(t *testing.T) {
	idx, metric, test := e2eIndex(t)
	srv, err := New(Config{Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
		return rec
	}
	marshal := func(v interface{}) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	opts := lan.SearchOptions{K: 5, Beam: 12}

	// A query whose renumbered copy gets another answer from the index.
	var q, perm *graph.Graph
	for _, cand := range test {
		want, _, err := idx.Search(cand, opts)
		if err != nil {
			t.Fatal(err)
		}
		p := reversed(cand)
		got, _, err := idx.Search(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			q, perm = cand, p
			break
		}
	}
	if q == nil {
		t.Fatal("no test query whose renumbered copy gets another answer")
	}

	// (a) The hit's body is the miss's, but for "cached".
	body := marshal(SearchRequest{Query: q, K: opts.K, Beam: opts.Beam})
	miss := post(body)
	if miss.Code != http.StatusOK {
		t.Fatalf("miss: status %d body=%s", miss.Code, miss.Body)
	}
	hit := post(body)
	if hit.Code != http.StatusOK || hit.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("hit: status %d, Content-Type %q", hit.Code, hit.Header().Get("Content-Type"))
	}
	wantHit := bytes.Replace(miss.Body.Bytes(), []byte(`"cached":false`), []byte(`"cached":true`), 1)
	if !bytes.Contains(miss.Body.Bytes(), []byte(`"cached":false`)) || !bytes.Equal(hit.Body.Bytes(), wantHit) {
		t.Fatalf("hit body is not the miss body with \"cached\":true:\nmiss %s\nhit  %s", miss.Body, hit.Body)
	}

	// (b) The renumbered copy is a miss and answers as the library does.
	want, _, err := idx.Search(perm, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := post(marshal(SearchRequest{Query: perm, K: opts.K, Beam: opts.Beam}))
	var got SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("status %d: %v", rec.Code, err)
	}
	if got.Cached || !reflect.DeepEqual(got.Results, want) {
		t.Fatalf("renumbered query: cached=%v results %v; want a fresh search's %v", got.Cached, got.Results, want)
	}

	// (c) 400 and 504 replies are never stored.
	entries := srv.cache.len()
	bad := marshal(SearchRequest{Query: q, K: 0})
	for i := 0; i < 2; i++ {
		if rec := post(bad); rec.Code != http.StatusBadRequest {
			t.Fatalf("k=0 request %d: status %d; want 400", i, rec.Code)
		}
	}
	metric.delayNS.Store(int64(2 * time.Millisecond))
	defer metric.delayNS.Store(0)
	slow := marshal(SearchRequest{Query: q, K: 3, TimeoutMS: 1})
	if rec := post(slow); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("tight deadline: status %d; want 504", rec.Code)
	}
	if got := srv.cache.len(); got != entries {
		t.Fatalf("cache holds %d entries after 400 and 504 replies; want %d", got, entries)
	}
}

// reversed returns g with its node ids in reverse order: the same graph,
// renumbered.
func reversed(g *graph.Graph) *graph.Graph {
	n := g.N()
	r := graph.New(g.ID)
	for v := n - 1; v >= 0; v-- {
		r.AddNode(g.Label(v))
	}
	for _, e := range g.Edges() {
		r.MustAddEdge(n-1-e[0], n-1-e[1])
	}
	return r
}

func TestWorkerPoolAdmissionAndTimeout(t *testing.T) {
	p := newWorkerPool(1, 1) // 1 executing + 1 queued = 2 in system
	if !p.tryAdmit() {
		t.Fatal("first admit refused")
	}
	rel1, err := p.acquireWorker(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !p.tryAdmit() { // fills the queue slot
		t.Fatal("queue slot refused")
	}
	if p.tryAdmit() { // third request: system full
		t.Fatal("overflow admitted; want refusal (429 path)")
	}

	// The queued request times out waiting for the busy worker and gives
	// its admission slot back.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := p.acquireWorker(ctx); err == nil {
		t.Fatal("expected timeout while queued")
	}
	if !p.tryAdmit() {
		t.Fatal("admission slot not released after queue timeout")
	}
	p.leave()

	// Releasing the worker frees both slots.
	rel1()
	if !p.tryAdmit() {
		t.Fatal("admission slot not released by worker release")
	}
	rel2, err := p.acquireWorker(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel2()
}

func TestMetricsPrometheusRendering(t *testing.T) {
	m := newMetrics()
	m.Request()
	m.Request()
	m.Error(429)
	m.Error(504)
	m.Cache(true)
	m.Cache(false)
	m.CacheRejected()
	m.Panic()
	m.ObserveLatency(0.002, "")
	m.ObserveQuery(10, 4, 100, "")

	var sb strings.Builder
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"lanserve_requests_total 2",
		`lanserve_errors_total{code="429"} 1`,
		`lanserve_errors_total{code="504"} 1`,
		"lanserve_rejected_total 1",
		"lanserve_timeouts_total 1",
		"lanserve_panics_total 1",
		"lanserve_cache_hits_total 1",
		"lanserve_cache_misses_total 1",
		"lanserve_cache_admission_rejected_total 1",
		"# TYPE lanserve_request_seconds histogram",
		"lanserve_request_seconds_count 1",
		"lanserve_query_ndc_count 1",
		"lanserve_query_ndc_sum 10",
		"lanserve_query_routing_steps_count 1",
		"lanserve_query_pruning_rate_count 1",
		"lanserve_query_pruning_rate_sum 0.9",
		`_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}
}

func TestNewRequiresIndex(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("Config without Index accepted")
	}
}

// fakeSearcher lets handler tests run without building a real index.
type fakeSearcher struct {
	results []lan.Result
	stats   lan.Stats
	err     error
	delay   time.Duration
	n       int
	calls   atomic.Int32
}

func (f *fakeSearcher) SearchContext(ctx context.Context, q *graph.Graph, so lan.SearchOptions) ([]lan.Result, lan.Stats, error) {
	f.calls.Add(1)
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return nil, f.stats, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, f.stats, err
	}
	return f.results, f.stats, f.err
}

func (f *fakeSearcher) Len() int { return f.n }
