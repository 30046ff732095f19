package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fullTrace builds a trace exercising every exported field, including a
// nested span tree — the round-trip fixture.
func fullTrace(id string) *Trace {
	tr := NewTrace(id)
	tr.SetConfig("lan", "lan", 5, 10)
	tr.SetEntry(42)
	tr.Step(42, 3.5, 8, 2, -1, 2)
	tr.Step(17, 2.0, 6, 3, 4, 5)
	tr.Gamma(4)
	tr.Gamma(5)
	init := tr.StartSpan("initial")
	tr.RecordSpan("embed", time.Now(), 250*time.Microsecond, 0, 1)
	tr.EndSpan(init, 2)
	routing := tr.StartSpan("routing")
	tr.RecordSpan("store_fetch", time.Now(), 80*time.Microsecond, 0, 7)
	tr.RecordSpan("embed", time.Now(), 120*time.Microsecond, 0, 6)
	tr.EndSpan(routing, 3)
	tr.Event("insert", 7, 3)
	tr.Finalize(5, 5, 4*time.Millisecond)
	return tr
}

// TestExportRoundTripGolden pins the export format: every field written
// (spans and their children included) is read back byte-identically, the
// golden contract lan-trace and lan-train -from-traces depend on.
func TestExportRoundTripGolden(t *testing.T) {
	dir := t.TempDir()
	exp, err := NewExporter(ExportConfig{Dir: dir, Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	want := fullTrace("q-golden")
	exp.Submit(want)
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}

	var got []*Trace
	stats, err := ReadSegments(dir, func(tr *Trace) error { got = append(got, tr); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 1 || stats.Traces != 1 || stats.Truncated != 0 {
		t.Fatalf("replay stats = %+v; want 1 segment, 1 trace, 0 truncated", stats)
	}
	wantJSON, _ := want.JSON()
	gotJSON, _ := got[0].JSON()
	if string(wantJSON) != string(gotJSON) {
		t.Errorf("round-trip lost fields:\nwrote %s\nread  %s", wantJSON, gotJSON)
	}
	// Spot-check the span tree specifically: the learning pipeline keys on
	// these fields surviving export.
	g := got[0]
	if len(g.Spans) != 2 || g.Spans[1].Name != "routing" || g.Spans[1].NDC != 3 {
		t.Fatalf("span forest lost: %+v", g.Spans)
	}
	if len(g.Spans[1].Children) != 2 || g.Spans[1].Children[0].Name != "store_fetch" || g.Spans[1].Children[0].N != 7 {
		t.Errorf("span children lost: %+v", g.Spans[1].Children)
	}
}

// TestExportSegmentHeader pins the versioned header line and the refusal
// of future versions.
func TestExportSegmentHeader(t *testing.T) {
	dir := t.TempDir()
	exp, err := NewExporter(ExportConfig{Dir: dir, Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	exp.Submit(fullTrace("q1"))
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := segmentFiles(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("segments = %v, %v", names, err)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(string(data), "\n", 2)[0]
	var hdr segmentHeader
	if err := json.Unmarshal([]byte(first), &hdr); err != nil || hdr.Format != segmentFormat || hdr.Version != segmentVersion {
		t.Fatalf("bad header line %q: %+v, %v", first, hdr, err)
	}

	// A future version must be refused, not misread.
	futurePath := filepath.Join(dir, "traces-900000.jsonl")
	future := fmt.Sprintf("{\"format\":%q,\"version\":%d}\n", segmentFormat, segmentVersion+1)
	if err := os.WriteFile(futurePath, []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSegmentFile(futurePath, nil); err == nil || !strings.Contains(err.Error(), "newer than this reader") {
		t.Fatalf("future version accepted: %v", err)
	}
}

// TestExportRotation writes through a tiny segment cap and checks the
// records land across multiple segments with no loss, replayed in order.
func TestExportRotation(t *testing.T) {
	dir := t.TempDir()
	exp, err := NewExporter(ExportConfig{Dir: dir, MaxSegmentBytes: 512, Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		exp.Submit(fullTrace(fmt.Sprintf("q%03d", i)))
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	var ids []string
	stats, err := ReadSegments(dir, func(tr *Trace) error { ids = append(ids, tr.QueryID); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Traces != n {
		t.Fatalf("replayed %d traces; want %d (stats %+v)", stats.Traces, n, stats)
	}
	if stats.Segments < 2 {
		t.Fatalf("expected rotation across segments, got %d segment(s)", stats.Segments)
	}
	for i, id := range ids {
		if want := fmt.Sprintf("q%03d", i); id != want {
			t.Fatalf("replay order broken at %d: %s != %s", i, id, want)
		}
	}
	if exp.exported.Value() != n || exp.segments.Value() != uint64(stats.Segments) {
		t.Errorf("counters: exported %d segments %d; want %d/%d", exp.exported.Value(), exp.segments.Value(), n, stats.Segments)
	}
}

// TestExportRestartContinuesNumbering pins that a new exporter over an
// existing directory appends new segments instead of clobbering old ones.
func TestExportRestartContinuesNumbering(t *testing.T) {
	dir := t.TempDir()
	for round := 0; round < 2; round++ {
		exp, err := NewExporter(ExportConfig{Dir: dir, Registry: NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		exp.Submit(fullTrace(fmt.Sprintf("round%d", round)))
		if err := exp.Close(); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := ReadSegments(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 2 || stats.Traces != 2 {
		t.Fatalf("restart clobbered segments: %+v", stats)
	}
}

// TestExportTruncatedTail replays a segment whose final record was cut
// mid-write: the corrupt tail must be skipped and counted, every complete
// record before it preserved, with no error.
func TestExportTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	exp, err := NewExporter(ExportConfig{Dir: dir, Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		exp.Submit(fullTrace(fmt.Sprintf("q%d", i)))
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := segmentFiles(dir)
	if len(names) != 1 {
		t.Fatalf("want one segment, got %v", names)
	}
	// Chop the file mid-way through the final record, simulating a crash.
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	cut := len(data) - 40
	if err := os.WriteFile(names[0], data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	var ids []string
	stats, err := ReadSegments(dir, func(tr *Trace) error { ids = append(ids, tr.QueryID); return nil })
	if err != nil {
		t.Fatalf("truncated tail must not error: %v", err)
	}
	if stats.Traces != n-1 || stats.Truncated != 1 {
		t.Fatalf("stats = %+v; want %d traces and 1 truncated tail", stats, n-1)
	}
	for i, id := range ids {
		if want := fmt.Sprintf("q%d", i); id != want {
			t.Fatalf("complete records perturbed: %v", ids)
		}
	}

	// Corruption in the middle (complete records after it) is an error.
	lines := strings.Split(string(data), "\n")
	lines[2] = lines[2][:len(lines[2])/2] // damage record 2 of 5
	if err := os.WriteFile(names[0], []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSegmentFile(names[0], nil); err == nil {
		t.Fatal("mid-file corruption replayed without error")
	}
}

// TestExportConcurrentSubmit hammers one exporter from many goroutines
// (the shared-pool churn shape) under -race: no lost complete records, no
// data races, drops only ever counted, never blocking.
func TestExportConcurrentSubmit(t *testing.T) {
	dir := t.TempDir()
	exp, err := NewExporter(ExportConfig{Dir: dir, MaxSegmentBytes: 4 << 10, QueueDepth: 16, Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				exp.Submit(fullTrace(fmt.Sprintf("w%d-%d", w, i)))
			}
		}(w)
	}
	wg.Wait()
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	stats, err := ReadSegments(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := stats.Traces + int(exp.dropped.Value())
	if total != writers*per {
		t.Fatalf("exported %d + dropped %d != submitted %d", stats.Traces, exp.dropped.Value(), writers*per)
	}
	if stats.Traces == 0 {
		t.Fatal("everything dropped; queue never drained")
	}
	// Submit after Close must be a silent no-op.
	exp.Submit(fullTrace("late"))
}

// TestExportSampling pins the deterministic hash sampler: the same query
// id always gets the same verdict, rates are honored roughly, and the
// slow-query override exports regardless.
func TestExportSampling(t *testing.T) {
	dir := t.TempDir()
	exp, err := NewExporter(ExportConfig{Dir: dir, Sample: 0.5, SlowUS: 1000, Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()

	in, out := 0, 0
	for i := 0; i < 1000; i++ {
		tr := &Trace{QueryID: fmt.Sprintf("q%d", i)}
		first := exp.sampled(tr)
		if first != exp.sampled(tr) {
			t.Fatal("sampling verdict not deterministic per id")
		}
		if first {
			in++
		} else {
			out++
		}
	}
	if in < 400 || in > 600 {
		t.Errorf("0.5 sampling kept %d/1000", in)
	}
	slow := &Trace{QueryID: "slowpoke", TotalUS: 5000}
	if !exp.sampled(slow) {
		t.Error("slow query not force-sampled")
	}
	// Sample 0 with a slow threshold: only slow queries pass.
	exp2, err := NewExporter(ExportConfig{Dir: t.TempDir(), Sample: 0, SlowUS: 1000, Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer exp2.Close()
	if exp2.sampled(&Trace{QueryID: "fast", TotalUS: 10}) {
		t.Error("sample 0 exported a fast query")
	}
	if !exp2.sampled(slow) {
		t.Error("sample 0 suppressed a slow query")
	}
}

// TestLookupExported resolves a trace id from segments on disk — the
// /debug/trace/<id> fallback path.
func TestLookupExported(t *testing.T) {
	dir := t.TempDir()
	exp, err := NewExporter(ExportConfig{Dir: dir, Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	exp.Submit(fullTrace("q-a"))
	exp.Submit(fullTrace("q-b"))
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := LookupExported(dir, "q-b")
	if err != nil || got == nil || got.QueryID != "q-b" {
		t.Fatalf("LookupExported = %v, %v", got, err)
	}
	if miss, err := LookupExported(dir, "q-zzz"); err != nil || miss != nil {
		t.Fatalf("missing id returned %v, %v", miss, err)
	}
}
