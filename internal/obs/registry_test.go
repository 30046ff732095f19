package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRegistryRendering(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("lan_test_events_total", "Events.")
	c.Inc()
	c.Add(2)
	v := r.CounterVec("lan_test_errors_total", "Errors by code.", "code")
	v.With("429").Inc()
	v.With("504").Inc()
	r.CounterFunc("lan_test_pulls_total", "Pulls.", func() uint64 { return 7 })
	r.CounterVecFunc("lan_test_wins_total", "Wins by member.", "member", []string{"b", "a"},
		func(i int) uint64 { return uint64(10 + i) })
	g := r.Gauge("lan_test_depth", "Depth.")
	g.Set(5)
	g.Inc()
	g.Dec()
	g.Add(-2)
	r.GaugeFunc("lan_test_ratio", "Ratio.", func() float64 { return 0.25 })
	r.Info("lan_test_build_info", "Build metadata.", [][2]string{{"version", "v1"}, {"rev", "abc"}})
	h := r.Histogram("lan_test_seconds", "Latency.", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(10)

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP lan_test_events_total Events.\n# TYPE lan_test_events_total counter\nlan_test_events_total 3\n",
		`lan_test_errors_total{code="429"} 1`,
		`lan_test_errors_total{code="504"} 1`,
		"lan_test_pulls_total 7",
		"# TYPE lan_test_wins_total counter\nlan_test_wins_total{member=\"b\"} 10\nlan_test_wins_total{member=\"a\"} 11\n",
		"# TYPE lan_test_depth gauge\nlan_test_depth 3\n",
		"lan_test_ratio 0.25",
		`lan_test_build_info{version="v1",rev="abc"} 1`,
		"# TYPE lan_test_seconds histogram",
		`lan_test_seconds_bucket{le="1"} 1`,
		`lan_test_seconds_bucket{le="2"} 2`,
		`lan_test_seconds_bucket{le="+Inf"} 3`,
		"lan_test_seconds_sum 12\n",
		"lan_test_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Families render sorted by name: depth before events before ratio.
	if strings.Index(out, "lan_test_depth") > strings.Index(out, "lan_test_events_total") {
		t.Error("families not sorted by name")
	}
}

func TestRegisterIdempotentSameKind(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("lan_test_once_total", "Once.")
	b := r.Counter("lan_test_once_total", "Twice — returns the first collector.")
	if a != b {
		t.Fatal("re-registering the same counter returned a new collector")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("the two handles do not share state")
	}
}

func TestRegisterKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("lan_test_kind_total", "A counter.")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("lan_test_kind_total", "Now a gauge.")
}

// TestHistogramBucketsCountAndSum pins where an observation lands (the
// first bucket whose upper bound it does not exceed, else +Inf), the count
// and the sum, and that NaN is dropped.
func TestHistogramBucketsCountAndSum(t *testing.T) {
	h := newHistogram("test", []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 2, 3, 7, 100} {
		h.Observe(v)
	}
	for i, want := range []uint64{1, 2, 1, 1, 1} {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d holds %d; want %d", i, got, want)
		}
	}
	if got, want := h.Count(), uint64(6); got != want {
		t.Errorf("count = %d; want %d", got, want)
	}
	if got, want := h.Sum(), 114.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v; want %v", got, want)
	}
	h.Observe(math.NaN()) // dropped
	if got := h.Count(); got != 6 {
		t.Errorf("count after NaN = %d; want 6", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram("test", ExpBuckets(1, 2, 8))
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if got, want := h.Count(), uint64(workers*per); got != want {
		t.Errorf("count = %d; want %d", got, want)
	}
	if got, want := h.Sum(), float64(workers*per); got != want {
		t.Errorf("sum = %v; want %v (CAS lost updates)", got, want)
	}
}

func TestBuckets(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	for i, want := range []float64{1, 2, 4, 8} {
		if exp[i] != want {
			t.Fatalf("ExpBuckets[%d] = %v; want %v", i, exp[i], want)
		}
	}
	lin := LinBuckets(0.1, 0.1, 3)
	for i, want := range []float64{0.1, 0.2, 0.3} {
		if math.Abs(lin[i]-want) > 1e-12 {
			t.Fatalf("LinBuckets[%d] = %v; want %v", i, lin[i], want)
		}
	}
}

func TestFormatFloatRendersIntegersBare(t *testing.T) {
	// lanserve's exact-string metric assertions depend on 10.0 rendering
	// as "10".
	if got := formatFloat(10); got != "10" {
		t.Errorf("formatFloat(10) = %q; want \"10\"", got)
	}
	if got := formatFloat(0.9); got != "0.9" {
		t.Errorf("formatFloat(0.9) = %q; want \"0.9\"", got)
	}
}

// TestHistogramExemplars pins the exemplar lifecycle: only traced
// observations land exemplars, the newest one per bucket wins, lookup by
// bucket works, and the exposition carries the OpenMetrics exemplar
// suffix on exactly the buckets that hold one.
func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lan_test_ex_seconds", "Latency.", []float64{1, 2})
	h.Observe(0.5) // untraced: no exemplar
	h.ObserveExemplar(1.5, "q-mid")
	h.ObserveExemplar(1.7, "q-mid2") // same bucket: replaces q-mid
	h.ObserveExemplar(10, "q-slow")

	if id, v, ok := h.Exemplar(0); ok {
		t.Errorf("untraced bucket holds exemplar %q=%v", id, v)
	}
	if id, v, ok := h.Exemplar(1); !ok || id != "q-mid2" || v != 1.7 {
		t.Errorf("bucket 1 exemplar = %q,%v,%v; want q-mid2,1.7", id, v, ok)
	}
	if id, _, ok := h.Exemplar(2); !ok || id != "q-slow" {
		t.Errorf("overflow bucket exemplar = %q,%v; want q-slow", id, ok)
	}
	if _, _, ok := h.Exemplar(-1); ok {
		t.Error("out-of-range bucket returned an exemplar")
	}
	if _, _, ok := h.Exemplar(3); ok {
		t.Error("out-of-range bucket returned an exemplar")
	}

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lan_test_ex_seconds_bucket{le="2"} 3 # {trace_id="q-mid2"} 1.7`,
		`lan_test_ex_seconds_bucket{le="+Inf"} 4 # {trace_id="q-slow"} 10`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing exemplar %q\n%s", want, out)
		}
	}
	if strings.Contains(out, `le="1"} 1 #`) {
		t.Errorf("untraced bucket rendered an exemplar:\n%s", out)
	}
	// Exemplars count as observations: sum and count include them.
	if !strings.Contains(out, "lan_test_ex_seconds_count 4") {
		t.Errorf("count missing exemplar observations:\n%s", out)
	}
}
