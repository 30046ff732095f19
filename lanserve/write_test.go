package lanserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/dataset"
)

// fakeWriter is a Mutable whose Insert blocks until its gate closes,
// for exercising write admission without a real index.
type fakeWriter struct {
	mu      sync.Mutex
	gate    chan struct{}
	inserts int
	deletes int
}

func (f *fakeWriter) Insert(g *graph.Graph) (int, error) {
	if f.gate != nil {
		<-f.gate
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.inserts++
	return f.inserts - 1, nil
}

func (f *fakeWriter) Delete(id int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if id < 0 {
		return fmt.Errorf("no graph with id %d", id)
	}
	f.deletes++
	return nil
}

func postJSON(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body))))
	return rec
}

func TestWriteEndpointsReadOnlyServer501(t *testing.T) {
	s := newTestServer(t, Config{}) // no Writer
	for _, path := range []string{"/insert", "/delete"} {
		rec := postJSON(t, s, path, `{}`)
		if rec.Code != http.StatusNotImplemented {
			t.Errorf("POST %s on read-only server = %d; want 501", path, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/insert", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /insert = %d; want 405", rec.Code)
	}
}

func TestWriteEndpointsBadRequests(t *testing.T) {
	s := newTestServer(t, Config{Writer: &fakeWriter{}})
	cases := []struct{ path, body string }{
		{"/insert", `not json`},
		{"/insert", `{}`},                                 // no graph
		{"/insert", `{"graph":{"labels":[],"edges":[]}}`}, // empty graph
		{"/delete", `not json`},
		{"/delete", `{"id":-1}`}, // writer rejects
	}
	for _, c := range cases {
		rec := postJSON(t, s, c.path, c.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s %q = %d; want 400", c.path, c.body, rec.Code)
		}
	}
}

func TestWriteAdmissionFullQueue429(t *testing.T) {
	gate := make(chan struct{})
	fw := &fakeWriter{gate: gate}
	s := newTestServer(t, Config{Writer: fw, WriteQueueDepth: 1})

	// One write occupies the single slot; a concurrent one is refused.
	done := make(chan int, 1)
	go func() {
		done <- postJSON(t, s, "/insert", `{"graph":{"labels":["A"],"edges":[]}}`).Code
	}()
	waitFor(t, func() bool { return len(s.writeSlots) == 1 })
	if rec := postJSON(t, s, "/delete", `{"id":0}`); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("write while queue full = %d; want 429", rec.Code)
	}
	close(gate)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight insert = %d; want 200", code)
	}
	// The slot is free again.
	waitFor(t, func() bool { return len(s.writeSlots) == 0 })
	if rec := postJSON(t, s, "/delete", `{"id":0}`); rec.Code != http.StatusOK {
		t.Fatalf("follow-up delete = %d; want 200", rec.Code)
	}

	var sb strings.Builder
	if _, err := s.Metrics().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`lanserve_write_requests_total{op="insert"} 1`,
		`lanserve_write_requests_total{op="delete"} 2`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, sb.String())
		}
	}
}

// TestWriteEndToEnd drives the full write path against a real built
// index over real HTTP: an inserted graph becomes searchable (and the
// epoch-keyed cache drops its pre-write entries), a deleted graph
// disappears from results, and the write metrics land on /metrics.
func TestWriteEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real index")
	}
	spec := dataset.AIDS(0.001)
	db := spec.Generate()
	queries := dataset.Workload(db, spec, 8, 11)
	train, _, test := dataset.Split(queries)
	idx, err := lan.Build(db, train, lan.Options{
		M: 4, Dim: 6, GammaKNN: 5, Epochs: 1, Seed: 3,
		QueryMetric: ged.MetricFunc(ged.Hungarian),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	srv, err := New(Config{Index: idx, Writer: idx})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := test[0]
	search := func() SearchResponse {
		t.Helper()
		resp, data := postSearch(t, ts, searchBody(t, q, 3, map[string]interface{}{"beam": 8}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search = %d body=%s", resp.StatusCode, data)
		}
		var sr SearchResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}

	// Warm the cache, then prove the hit.
	search()
	if !search().Cached {
		t.Fatal("identical pre-write query was not a cache hit")
	}

	// Insert the query graph itself: GED(q, q) = 0, so it must surface
	// as the top result afterwards.
	body, err := json.Marshal(map[string]interface{}{"graph": q})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/insert", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert = %d body=%s", resp.StatusCode, data)
	}
	var ins InsertResponse
	if err := json.Unmarshal(data, &ins); err != nil {
		t.Fatal(err)
	}
	if ins.ID != len(db) || ins.Epoch != 1 {
		t.Fatalf("insert response = %+v; want id %d, epoch 1", ins, len(db))
	}

	// The write bumped the epoch: the cached entry is orphaned and the
	// fresh search finds the inserted graph at distance 0.
	after := search()
	if after.Cached {
		t.Fatal("post-insert search served the stale cached entry")
	}
	if len(after.Results) == 0 || after.Results[0].ID != ins.ID || after.Results[0].Dist != 0 {
		t.Fatalf("inserted graph not the top result: %+v", after.Results)
	}
	// The insert repaired its edges before it returned, so nothing moves
	// the epoch behind it: the same search is now a cache hit.
	if !search().Cached {
		t.Fatal("repeated post-insert query was not a cache hit")
	}

	// Delete it again: gone from results, epoch bumped once more.
	body, _ = json.Marshal(map[string]int{"id": ins.ID})
	resp, err = http.Post(ts.URL+"/delete", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d body=%s", resp.StatusCode, data)
	}
	var del DeleteResponse
	if err := json.Unmarshal(data, &del); err != nil {
		t.Fatal(err)
	}
	if del.Epoch != ins.Epoch+1 {
		t.Fatalf("delete epoch %d; want insert epoch %d + 1", del.Epoch, ins.Epoch)
	}
	final := search()
	if final.Cached {
		t.Fatal("post-delete search served a stale cached entry")
	}
	for _, r := range final.Results {
		if r.ID == ins.ID {
			t.Fatalf("deleted graph %d still in results: %+v", ins.ID, final.Results)
		}
	}

	// Write telemetry is exposed.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`lanserve_write_requests_total{op="insert"} 1`,
		`lanserve_write_requests_total{op="delete"} 1`,
		"lanserve_write_seconds_count 2",
	} {
		if !strings.Contains(string(mdata), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, mdata)
		}
	}
}
