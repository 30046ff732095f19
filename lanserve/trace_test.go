package lanserve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/internal/obs"
)

// TestSearchExportsTraces wires an exporter into the server and checks
// every executed search lands in the segment files with its query id.
func TestSearchExportsTraces(t *testing.T) {
	dir := t.TempDir()
	exp, err := obs.NewExporter(obs.ExportConfig{Dir: dir, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Exporter: exp, CacheSize: -1})
	const n = 3
	for i := 0; i < n; i++ {
		if rec := doSearch(s, testQueryJSON(t, "")); rec.Code != http.StatusOK {
			t.Fatalf("search %d = %d body=%s", i, rec.Code, rec.Body)
		}
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	var ids []string
	stats, err := obs.ReadSegments(dir, func(tr *obs.Trace) error { ids = append(ids, tr.QueryID); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Traces != n {
		t.Fatalf("exported %d traces; want %d", stats.Traces, n)
	}
	for i, id := range ids {
		if !strings.HasPrefix(id, "q") {
			t.Errorf("trace %d has query id %q", i, id)
		}
	}
}

// TestErrorBodiesCarryQueryID pins the error contract: refused and failed
// searches name their query id in the JSON body so clients can quote it
// back at the server's logs and traces. The log_records case reads the
// server's JSON log and checks the records of a failed and of a slow
// search carry that same id.
func TestErrorBodiesCarryQueryID(t *testing.T) {
	t.Run("log_records", func(t *testing.T) {
		var logs bytes.Buffer
		s := newTestServer(t, Config{
			Index: &fakeSearcher{
				results: []lan.Result{{ID: 3, Dist: 1}},
				stats:   lan.Stats{NDC: 5, Total: time.Millisecond},
				n:       50,
			},
			Logger:    slog.New(slog.NewJSONHandler(&logs, nil)),
			SlowQuery: time.Nanosecond,
		})
		rec := doSearch(s, testQueryJSON(t, `,"routing":"warp"`))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status = %d", rec.Code)
		}
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatal(err)
		}
		if er.QueryID == "" || !strings.HasPrefix(er.QueryID, "q") {
			t.Fatalf("400 body missing query_id: %s", rec.Body)
		}
		if rec := doSearch(s, testQueryJSON(t, "")); rec.Code != http.StatusOK {
			t.Fatalf("slow search = %d body=%s", rec.Code, rec.Body)
		}
		type record struct {
			Msg     string `json:"msg"`
			QueryID string `json:"query_id"`
			Trace   struct {
				QueryID string `json:"query_id"`
			} `json:"trace"`
		}
		records := make(map[string]record)
		for dec := json.NewDecoder(&logs); dec.More(); {
			var r record
			if err := dec.Decode(&r); err != nil {
				t.Fatal(err)
			}
			records[r.Msg] = r
		}
		if got := records["search failed"].QueryID; got != er.QueryID {
			t.Errorf("search failed record has query_id %q; the 400 body says %q", got, er.QueryID)
		}
		// Query ids are sequential per server: the slow search came next.
		if r := records["slow query"]; r.QueryID != "q2" || r.Trace.QueryID != "q2" {
			t.Errorf("slow query record has query_id %q, trace %q; want q2 for both", r.QueryID, r.Trace.QueryID)
		}
	})

	t.Run("deadline", func(t *testing.T) {
		// 504: deadline expired during search.
		slow := newTestServer(t, Config{
			Index: &fakeSearcher{delay: 200 * time.Millisecond, n: 10},
		})
		rec := doSearch(slow, testQueryJSON(t, `,"timeout_ms":1`))
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("status = %d; want 504", rec.Code)
		}
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatal(err)
		}
		if er.QueryID == "" {
			t.Fatalf("504 body missing query_id: %s", rec.Body)
		}
	})
}

// TestDebugTraceByID resolves a query's trace from the ring and, when the
// ring has moved on, from the exported segments.
func TestDebugTraceByID(t *testing.T) {
	dir := t.TempDir()
	exp, err := obs.NewExporter(obs.ExportConfig{Dir: dir, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	s := newTestServer(t, Config{Exporter: exp, TraceRing: 1, CacheSize: -1})

	if rec := doSearch(s, testQueryJSON(t, "")); rec.Code != http.StatusOK {
		t.Fatalf("search = %d", rec.Code)
	}
	// Ring hit: the first executed search is q1.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace/q1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace/q1 = %d body=%s", rec.Code, rec.Body)
	}
	var tr obs.Trace
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil || tr.QueryID != "q1" {
		t.Fatalf("trace body = %s (%v)", rec.Body, err)
	}

	// Evict q1 from the one-slot ring with a second search, then resolve
	// q1 from the exported segments (the writer is async; poll).
	if rec := doSearch(s, testQueryJSON(t, "")); rec.Code != http.StatusOK {
		t.Fatalf("second search = %d", rec.Code)
	}
	if s.ring.Get("q1") != nil {
		t.Fatal("q1 still in the one-slot ring")
	}
	waitFor(t, func() bool {
		tr, err := obs.LookupExported(dir, "q1")
		return err == nil && tr != nil
	})
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace/q1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("exported lookup = %d body=%s", rec.Code, rec.Body)
	}

	// Unknown ids are a 404, not an error.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace/zzz", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown id = %d; want 404", rec.Code)
	}
}

// TestMetricsExemplars checks a traced search leaves its query id as the
// exemplar of the latency and NDC buckets it landed in.
func TestMetricsExemplars(t *testing.T) {
	s := newTestServer(t, Config{}) // default TraceRing traces every query
	if rec := doSearch(s, testQueryJSON(t, "")); rec.Code != http.StatusOK {
		t.Fatalf("search = %d", rec.Code)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, `# {trace_id="q1"}`) {
		t.Fatalf("exposition missing exemplar for q1:\n%s", body)
	}
	for _, family := range []string{"lanserve_request_seconds_bucket", "lanserve_query_ndc_bucket"} {
		found := false
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, family) && strings.Contains(line, `trace_id="q1"`) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s carries no exemplar:\n%s", family, body)
		}
	}
}
