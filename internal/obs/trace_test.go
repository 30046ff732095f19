package obs

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

func TestTraceRecordingAndJSON(t *testing.T) {
	tr := NewTrace("q1")
	tr.SetConfig("lan", "lan", 5, 10)
	tr.SetEntry(42)
	tr.Step(42, 3.5, 8, 2, -1, 2)
	tr.Step(17, 2.0, 6, 3, 4, 5)
	tr.Gamma(4)
	tr.Gamma(5)
	init := tr.StartSpan("initial")
	tr.RecordSpan("embed", time.Time{}, 300*time.Microsecond, 0, 1)
	tr.EndSpan(init, 2)
	routing := tr.StartSpan("routing")
	tr.RecordSpan("store_fetch", time.Time{}, 120*time.Microsecond, 0, 6)
	tr.EndSpan(routing, 3)
	tr.Finalize(5, 5, 4*time.Millisecond)

	data, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var got Trace
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("round-trip: %v\n%s", err, data)
	}
	if got.QueryID != "q1" || got.Initial != "lan" || got.Routing != "lan" || got.K != 5 || got.Beam != 10 {
		t.Errorf("config lost: %+v", &got)
	}
	if got.Entry != 42 || len(got.Steps) != 2 || got.Steps[1].Node != 17 || got.Steps[1].Gamma != 4 {
		t.Errorf("steps lost: %+v", got.Steps)
	}
	if len(got.Gammas) != 2 || got.Gammas[1] != 5 {
		t.Errorf("gammas lost: %v", got.Gammas)
	}
	if len(got.Spans) != 2 || got.Spans[0].Name != "initial" || got.Spans[1].Name != "routing" {
		t.Errorf("spans lost: %+v", got.Spans)
	}
	if len(got.Spans) == 2 {
		if got.Spans[0].NDC != 2 || got.Spans[1].NDC != 3 {
			t.Errorf("span NDC lost: %+v %+v", got.Spans[0], got.Spans[1])
		}
		if len(got.Spans[0].Children) != 1 || got.Spans[0].Children[0].Name != "embed" || got.Spans[0].Children[0].US != 300 {
			t.Errorf("child span lost: %+v", got.Spans[0].Children)
		}
		if len(got.Spans[1].Children) != 1 || got.Spans[1].Children[0].N != 6 {
			t.Errorf("store_fetch child lost: %+v", got.Spans[1].Children)
		}
	}
	if got.NDC != 5 || got.Results != 5 || got.TotalUS != 4000 {
		t.Errorf("totals lost: %+v", &got)
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	tr.SetConfig("lan", "lan", 1, 1)
	tr.SetEntry(0)
	tr.Step(0, 0, 0, 0, 0, 0)
	tr.Gamma(0)
	sp := tr.StartSpan("x")
	tr.RecordSpan("y", time.Now(), 0, 0, 0)
	tr.EndSpan(sp, 0)
	tr.EndSpan(NewTrace("t2").StartSpan("z"), 0) // nil trace, live span
	tr.Finalize(0, 0, 0)
	data, err := tr.JSON()
	if err != nil || string(data) != "null" {
		t.Fatalf("nil JSON = %q, %v; want null, nil", data, err)
	}
	if From(context.Background()) != nil {
		t.Fatal("From on a bare context should be nil")
	}
	if ctx := context.Background(); With(ctx, nil) != ctx {
		t.Fatal("With(nil) should return ctx unchanged")
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	tr := NewTrace("q")
	ctx := With(context.Background(), tr)
	if From(ctx) != tr {
		t.Fatal("From did not recover the attached trace")
	}
}

func TestTraceRingEvictionAndOrder(t *testing.T) {
	r := NewTraceRing(2)
	a, b, c := NewTrace("a"), NewTrace("b"), NewTrace("c")
	r.Add(a)
	if got := r.Last(); len(got) != 1 || got[0] != a {
		t.Fatalf("after one add: %v", got)
	}
	r.Add(b)
	r.Add(c) // evicts a
	got := r.Last()
	if len(got) != 2 || got[0] != c || got[1] != b {
		t.Fatalf("Last = [%s %s]; want [c b] (newest first)",
			got[0].QueryID, got[1].QueryID)
	}

	var nilRing *TraceRing
	nilRing.Add(a)
	if nilRing.Last() != nil {
		t.Fatal("nil ring returned traces")
	}
	if NewTraceRing(0) != nil || NewTraceRing(-1) != nil {
		t.Fatal("non-positive capacity should yield the nil (disabled) ring")
	}
	r.Add(nil) // nil traces are dropped, not stored
	if got := r.Last(); len(got) != 2 {
		t.Fatalf("nil Add changed the ring: %v", got)
	}
}

// TestTraceDisabledZeroAlloc pins the disabled-tracing contract: a context
// without a trace costs no allocations to interrogate, and every recording
// method on the resulting nil trace is free.
func TestTraceDisabledZeroAlloc(t *testing.T) {
	ctx := context.Background()
	start := time.Now()
	allocs := testing.AllocsPerRun(100, func() {
		tr := From(ctx)
		tr.SetConfig("lan", "lan", 10, 20)
		tr.SetEntry(1)
		tr.Step(1, 2.0, 3, 4, 5.0, 6)
		tr.Gamma(1.0)
		sp := tr.StartSpan("routing")
		tr.RecordSpan("store_fetch", start, time.Millisecond, 0, 4)
		tr.EndSpan(sp, 1)
		tr.Finalize(1, 1, time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing costs %v allocs/op; want 0", allocs)
	}
}

func BenchmarkTraceDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := From(ctx)
		tr.Step(i, 1.0, 4, 2, 3.0, i)
		tr.Gamma(1.0)
	}
}
