package lan

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/dataset"
)

// probeMetric wraps the GED metric so tests can count the distance
// computations a search starts, cancel a context from inside the i-th of
// them, and slow them enough that a deadline lands mid-search. It starts
// idle, so index building runs at full speed; its methods are safe against
// concurrent searches.
type probeMetric struct {
	inner ged.Metric

	mu       sync.Mutex
	delay    time.Duration
	calls    int // distance computations begun since the last watch
	cancelAt int // the call that cancels from inside (0 = none)
	cancel   context.CancelFunc
}

// slow delays every subsequent distance computation by d (0 = full speed).
func (m *probeMetric) slow(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.delay = d
}

// watch zeroes the call count and has cancel run inside the cancelAt-th
// distance computation from now (0 = never).
func (m *probeMetric) watch(cancelAt int, cancel context.CancelFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls, m.cancelAt, m.cancel = 0, cancelAt, cancel
}

// seen returns the number of distance computations begun since watch.
func (m *probeMetric) seen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.calls
}

func (m *probeMetric) Distance(a, b *graph.Graph) float64 {
	m.mu.Lock()
	m.calls++
	hit := m.calls == m.cancelAt
	d := m.delay
	m.mu.Unlock()
	if hit {
		m.cancel()
	}
	if d > 0 {
		time.Sleep(d)
	}
	return m.inner.Distance(a, b)
}

var cancelFixture struct {
	once   sync.Once
	idx    *Index
	metric *probeMetric
	query  *graph.Graph
	err    error
}

// cancelIndex builds an index over the first third of a tiny database,
// driven by a probeMetric; kept -short-fast so the race-mode CI leg covers
// these tests.
func cancelIndex(t *testing.T) (*Index, *probeMetric, *graph.Graph) {
	t.Helper()
	f := &cancelFixture
	f.once.Do(func() {
		spec := dataset.AIDS(0.002)
		db := spec.Generate()
		queries := dataset.Workload(db, spec, 12, 3)
		f.metric = &probeMetric{inner: ged.MetricFunc(ged.Hungarian)}
		f.idx, f.err = Build(db[:(len(db)+2)/3], queries,
			Options{M: 4, Dim: 6, GammaKNN: 5, Epochs: 1, Seed: 1, QueryMetric: f.metric})
		f.query = queries[0]
	})
	if f.err != nil {
		t.Fatalf("building cancel fixture: %v", f.err)
	}
	return f.idx, f.metric, f.query
}

func TestSearchContextPreCanceled(t *testing.T) {
	idx, _, q := cancelIndex(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, _, err := idx.SearchContext(ctx, q, SearchOptions{K: 3, Beam: 8}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled", err)
	}
}

// settleGoroutines waits for the goroutine count to return to before: a
// search must not return while goroutines it started are still running.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelPointSweep is the cancellation rule as a property: for every
// strategy pair, and for every i up to the query's NDC, cancelling from
// inside the i-th distance computation makes the search return
// context.Canceled having started exactly i computations — none begins
// after the cancel — with every goroutine it spawned gone, and the index
// answers the next query as before.
func TestCancelPointSweep(t *testing.T) {
	idx, metric, q := cancelIndex(t)
	before := runtime.NumGoroutine()
	for _, is := range []InitialStrategy{LANIS, HNSWIS, RandIS} {
		for _, rt := range []RoutingStrategy{LANRoute, BaselineRoute, OracleRoute} {
			so := SearchOptions{K: 2, Beam: 3, Initial: is, Routing: rt}
			tag := is.String() + "/" + rt.String()
			uncancelled := func() []Result {
				metric.watch(0, nil)
				res, stats, err := idx.SearchContext(context.Background(), q, so)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if n := metric.seen(); n == 0 || n != stats.NDC {
					t.Fatalf("%s: metric saw %d calls, stats.NDC = %d", tag, n, stats.NDC)
				}
				return res
			}
			want := uncancelled()
			for i, ndc := 1, metric.seen(); i <= ndc; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				metric.watch(i, cancel)
				_, _, err := idx.SearchContext(ctx, q, so)
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: cancel inside call %d/%d: err = %v; want context.Canceled", tag, i, ndc, err)
				}
				if n := metric.seen(); n != i {
					t.Fatalf("%s: cancel inside call %d/%d: %d more distance computations started", tag, i, ndc, n-i)
				}
				settleGoroutines(t, before)
			}
			if got := uncancelled(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: answer after the sweep %v; want %v", tag, got, want)
			}
		}
	}
}

func TestSearchContextDeadline(t *testing.T) {
	idx, metric, q := cancelIndex(t)
	metric.slow(2 * time.Millisecond)
	defer metric.slow(0)

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, _, err := idx.SearchContext(ctx, q, SearchOptions{K: 3, Beam: 32})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v; want context.DeadlineExceeded", err)
	}
}

// TestNoGoroutineLeak checks that every goroutine the library starts has
// exited once the call that started it returns, or once Close does for the
// long-lived ones. Build with two workers covers the proximity-graph build
// pool, the compressed-graph batch, the model fan-outs and core.Build's
// training goroutine. Then come the ground-truth fan-out, the optimizer
// that Insert starts, a traced search, and the trace exporter's writer.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	spec := dataset.AIDS(0.002)
	db := spec.Generate()
	queries := dataset.Workload(db, spec, 8, 3)
	idx, err := Build(db, queries, Options{M: 4, Dim: 6, GammaKNN: 5, Epochs: 1, Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, before)

	dataset.ComputeGroundTruth(db, queries[:2], ged.MetricFunc(ged.Hungarian), 3)
	settleGoroutines(t, before)

	if _, err := idx.Insert(queries[0]); err != nil {
		t.Fatal(err)
	}
	exp, err := NewTraceExporter(TraceExportConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace("leak")
	if _, _, err := idx.SearchContext(WithTrace(context.Background(), tr), queries[1], SearchOptions{K: 3, Beam: 8}); err != nil {
		t.Fatal(err)
	}
	exp.Submit(tr)
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, before)
}
