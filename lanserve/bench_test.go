package lanserve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/internal/dataset"
)

// replayBody is a rewindable request body, so a replay allocates nothing
// of its own.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// hitReplay serves one warmed /search body over and over from a server
// whose searcher is a fake: every replay after the first is a cache hit,
// and only the handler runs.
type hitReplay struct {
	s    *Server
	body []byte
	rb   replayBody
	req  *http.Request
	w    discardWriter
}

// newHitReplay builds the replay over a query of the serve benchmark's
// shape: a SYN@640 graph, k 10, beam 12.
func newHitReplay(tb testing.TB) *hitReplay {
	tb.Helper()
	spec := dataset.SYN(0.00064)
	q := dataset.Workload(spec.Generate(), spec, 1, 1)[0]
	body, err := json.Marshal(SearchRequest{Query: q, K: 10, Beam: 12})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := New(Config{Index: &fakeSearcher{
		results: []lan.Result{{ID: 3, Dist: 1}, {ID: 7, Dist: 2}},
		stats:   lan.Stats{NDC: 40, Explored: 12},
		n:       640,
	}})
	if err != nil {
		tb.Fatal(err)
	}
	h := &hitReplay{s: s, body: body, w: discardWriter{header: http.Header{}}}
	h.req, err = http.NewRequest(http.MethodPost, "/search", &h.rb)
	if err != nil {
		tb.Fatal(err)
	}
	h.serve() // the miss that fills the cache
	if h.w.code != http.StatusOK {
		tb.Fatalf("warm-up: status %d", h.w.code)
	}
	return h
}

func (h *hitReplay) serve() {
	h.rb.Reset(h.body)
	h.w.code = 0
	h.s.ServeHTTP(&h.w, h.req)
}

func BenchmarkSearchCacheHit(b *testing.B) {
	h := newHitReplay(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(h.body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.serve()
	}
	b.StopTimer()
	if h.w.code != http.StatusOK || h.s.Metrics().CacheHits() != uint64(b.N) {
		b.Fatalf("status %d, %d hits over %d replays", h.w.code, h.s.Metrics().CacheHits(), b.N)
	}
}

// TestCacheHitAllocs guards the hit path: it reads the body and writes
// the stored bytes; it decodes, validates, WL-hashes and encodes nothing.
// A hit measured 5 allocations (the body reader and its buffer, the query
// id, the Content-Type header); one that decodes the query again costs
// ~190.
func TestCacheHitAllocs(t *testing.T) {
	const maxHitAllocs = 7
	h := newHitReplay(t)
	if got := testing.AllocsPerRun(100, h.serve); got > maxHitAllocs {
		t.Fatalf("a cache hit allocates %.0f times; want at most %d", got, maxHitAllocs)
	}
	if h.w.code != http.StatusOK {
		t.Fatalf("status %d; want 200", h.w.code)
	}
}
