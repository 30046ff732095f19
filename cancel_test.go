package lan

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
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
	once    sync.Once
	idx     *Index
	sharded *ShardedIndex
	metric  *probeMetric
	query   *graph.Graph
	err     error
}

// cancelIndexes builds a three-shard index over a tiny database, driven by
// a probeMetric. The plain-Index cancellation paths are exercised through
// shard 0 (a *Index over a third of the database) so the fixture pays for
// one build; kept -short-fast so the race-mode CI leg covers these tests.
func cancelIndexes(t *testing.T) (*Index, *ShardedIndex, *probeMetric, *graph.Graph) {
	t.Helper()
	f := &cancelFixture
	f.once.Do(func() {
		spec := dataset.AIDS(0.002)
		db := spec.Generate()
		queries := dataset.Workload(db, spec, 12, 3)
		f.metric = &probeMetric{inner: ged.MetricFunc(ged.Hungarian)}
		f.sharded, f.err = BuildSharded(db, queries, ShardedOptions{
			ShardSize: (len(db) + 2) / 3,
			Parallel:  2,
			Options:   Options{M: 4, Dim: 6, GammaKNN: 5, Epochs: 1, Seed: 1, QueryMetric: f.metric},
		})
		if f.err != nil {
			return
		}
		f.idx = f.sharded.shards[0]
		f.query = queries[0]
	})
	if f.err != nil {
		t.Fatalf("building cancel fixture: %v", f.err)
	}
	return f.idx, f.sharded, f.metric, f.query
}

func TestSearchContextPreCanceled(t *testing.T) {
	idx, sharded, _, q := cancelIndexes(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, _, err := idx.SearchContext(ctx, q, SearchOptions{K: 3, Beam: 8}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Index err = %v; want context.Canceled", err)
	}
	_, _, err := sharded.SearchContext(ctx, q, SearchOptions{K: 3, Beam: 8})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ShardedIndex err = %v; want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "shard") {
		t.Fatalf("sharded error %q does not identify the failing shard", err)
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
// strategy pair, on one index and on the sharded fan-out, and for every i
// up to the query's NDC, cancelling from inside the i-th distance
// computation makes the search return context.Canceled having started
// exactly i computations — none begins after the cancel — with every
// goroutine it spawned gone, and the index answers the next query as
// before.
func TestCancelPointSweep(t *testing.T) {
	idx, sharded, metric, q := cancelIndexes(t)
	// One shard after another: "the i-th call" is then one point of the
	// fan-out, and the count after a cancel is exact rather than racing
	// the other shards' in-flight calls.
	defer func(p int) { sharded.parallel = p }(sharded.parallel)
	sharded.parallel = 1

	type searcher interface {
		SearchContext(context.Context, *graph.Graph, SearchOptions) ([]Result, Stats, error)
	}
	before := runtime.NumGoroutine()
	for _, target := range []struct {
		name string
		s    searcher
	}{{"index", idx}, {"sharded", sharded}} {
		name, s := target.name, target.s
		for _, is := range []InitialStrategy{LANIS, HNSWIS, RandIS} {
			for _, rt := range []RoutingStrategy{LANRoute, BaselineRoute, OracleRoute} {
				so := SearchOptions{K: 2, Beam: 3, Initial: is, Routing: rt}
				tag := name + " " + is.String() + "/" + rt.String()
				uncancelled := func() []Result {
					metric.watch(0, nil)
					res, stats, err := s.SearchContext(context.Background(), q, so)
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
					_, _, err := s.SearchContext(ctx, q, so)
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
}

func TestSearchContextDeadline(t *testing.T) {
	idx, _, metric, q := cancelIndexes(t)
	metric.slow(2 * time.Millisecond)
	defer metric.slow(0)

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, _, err := idx.SearchContext(ctx, q, SearchOptions{K: 3, Beam: 32})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v; want context.DeadlineExceeded", err)
	}
}

// TestShardedCancelNoGoroutineLeak cancels a sharded fan-out mid-flight and
// verifies every shard goroutine exits: SearchContext must not return while
// workers it spawned are still running.
func TestShardedCancelNoGoroutineLeak(t *testing.T) {
	_, sharded, metric, q := cancelIndexes(t)
	metric.slow(500 * time.Microsecond)
	defer metric.slow(0)

	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		_, _, err := sharded.SearchContext(ctx, q, SearchOptions{K: 3, Beam: 32})
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: err = %v", i, err)
		}
	}

	// Allow the cancel-timer goroutines above to wind down, then insist the
	// count returns to its starting point.
	settleGoroutines(t, before)
}
