package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
)

// meter is the forwarding ged.Metric the harness hands to lan.Options, so
// that the GED layer is timed from outside. Switched off it forwards
// without reading the clock — that is how the timed passes run. Switched
// on it counts calls and busy time, and, while an operation is marked
// current, records a "ged.distance" child span and the (graph, query) pair
// for the member replay.
type meter struct {
	inner ged.Metric
	on    atomic.Bool
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds

	tr     *tracer
	parent atomic.Int64 // span id of the operation in progress, 0 = none
	op     atomic.Int64

	mu       sync.Mutex
	pairs    []pair
	maxPairs int
}

// pair is one recorded distance call: database graph, query graph, and the
// operation (query index) that asked for it.
type pair struct {
	g, q *graph.Graph
	op   int
}

func newMeter(inner ged.Metric, tr *tracer) *meter {
	if inner == nil {
		inner = ged.MetricFunc(ged.Hungarian) // the library's default
	}
	return &meter{inner: inner, tr: tr}
}

// Distance implements ged.Metric.
func (m *meter) Distance(g, h *graph.Graph) float64 {
	if !m.on.Load() {
		return m.inner.Distance(g, h)
	}
	start := time.Now()
	d := m.inner.Distance(g, h)
	end := time.Now()
	m.calls.Add(1)
	m.busy.Add(int64(end.Sub(start)))
	if parent := int(m.parent.Load()); parent != 0 {
		op := int(m.op.Load())
		m.tr.add("ged.distance", parent, op, start, end)
		m.mu.Lock()
		if len(m.pairs) < m.maxPairs {
			m.pairs = append(m.pairs, pair{g: g, q: h, op: op})
		}
		m.mu.Unlock()
	}
	return d
}

// enter marks span id as the operation whose distance calls follow; leave
// with enter(0, 0).
func (m *meter) enter(id, op int) {
	m.parent.Store(int64(id))
	m.op.Store(int64(op))
}

func (m *meter) totals() (calls int64, busy time.Duration) {
	return m.calls.Load(), time.Duration(m.busy.Load())
}

func (m *meter) reset() {
	m.calls.Store(0)
	m.busy.Store(0)
}

// replay times f over the pairs and returns the mean time per call.
func replay(pairs []pair, f func(g, q *graph.Graph) float64) time.Duration {
	if len(pairs) == 0 {
		return 0
	}
	start := time.Now()
	for _, p := range pairs {
		f(p.g, p.q)
	}
	return time.Since(start) / time.Duration(len(pairs))
}

// allocsPerCall replays the whole metric and reports heap objects and
// bytes allocated per call.
func allocsPerCall(pairs []pair, m ged.Metric) (objects, bytes float64) {
	if len(pairs) == 0 {
		return 0, 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range pairs {
		m.Distance(p.g, p.q)
	}
	runtime.ReadMemStats(&after)
	n := float64(len(pairs))
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}
