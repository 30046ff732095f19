// Package obs is the unified observability layer: a process-wide metrics
// registry (counters, gauges, fixed-bucket histograms — atomic and
// allocation-free on the hot path) plus a per-query trace recorder that is
// threaded through the routing pipeline via context.Context. It replaces
// the private metric code that used to live in lanserve and the ad-hoc
// per-query accounting in core, so lan-bench, lan-serve and lan-train all
// export the same metric families in the Prometheus text exposition
// format.
//
// Naming convention (enforced by the metricname analyzer): every metric is
// lan_<subsystem>_<name>_<unit> — lowercase snake case starting with
// "lan"; counters end in _total, nothing else does. Each name is
// registered at exactly one call site per package.
//
// Registries are cheap; a process typically uses the shared Default()
// registry for engine-level families and per-component registries (e.g.
// one per lanserve.Server) for families whose lifetime is the component's.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds a set of named metric families and renders them in the
// Prometheus text exposition format. All methods are safe for concurrent
// use; the collectors it hands out are lock-free.
type Registry struct {
	mu         sync.Mutex
	collectors map[string]collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{collectors: make(map[string]collector)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry shared by the engine-level
// families (query cost, build cost, process state).
func Default() *Registry { return defaultRegistry }

// collector is one registered metric family.
type collector interface {
	help() string
	kind() string // "counter", "gauge" or "histogram"
	write(w io.Writer, name string)
}

// register installs c under name. Registering the same name twice is a
// programmer error caught statically by the metricname analyzer; at
// runtime a second registration with the same kind returns the existing
// collector (idempotence keeps e.g. repeated engine constructions safe)
// and a kind mismatch panics.
func (r *Registry) register(name string, c collector) collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.collectors[name]; ok {
		if old.kind() != c.kind() {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, c.kind(), old.kind()))
		}
		return old
	}
	r.collectors[name] = c
	return c
}

// Counter registers (or returns the existing) monotonically increasing
// counter. Counter names end in _total by convention.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, &Counter{h: help}).(*Counter)
}

// CounterVec registers a counter family partitioned by one label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return r.register(name, &CounterVec{h: help, label: label}).(*CounterVec)
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time (for counters maintained elsewhere, e.g. package ged's
// arena statistics).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(name, &counterFunc{h: help, fn: fn})
}

// CounterVecFunc registers a counter family partitioned by one label whose
// values are fixed at registration and whose counts are read from fn at
// exposition time: fn(i) is the count of values[i] (for families
// maintained elsewhere, e.g. package ged's per-member ensemble statistics).
func (r *Registry) CounterVecFunc(name, help, label string, values []string, fn func(i int) uint64) {
	r.register(name, &counterVecFunc{h: help, label: label, values: values, fn: fn})
}

// Gauge registers (or returns the existing) integer gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, &Gauge{h: help}).(*Gauge)
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, &gaugeFunc{h: help, fn: fn})
}

// Histogram registers (or returns the existing) fixed-bucket cumulative
// histogram. bounds are ascending upper bounds; +Inf is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, newHistogram(help, bounds)).(*Histogram)
}

// Info registers a constant value-1 gauge carrying its payload in labels
// (the lan_build_info idiom). labels render in the given order.
func (r *Registry) Info(name, help string, labels [][2]string) {
	r.register(name, &info{h: help, labels: labels})
}

// WriteTo renders every registered family, sorted by name, in the
// Prometheus text exposition format.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	names := make([]string, 0, len(r.collectors))
	for name := range r.collectors {
		names = append(names, name)
	}
	sort.Strings(names)
	cs := make([]collector, len(names))
	for i, name := range names {
		cs[i] = r.collectors[name]
	}
	r.mu.Unlock()

	cw := &countingWriter{w: w}
	for i, name := range names {
		c := cs[i]
		fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s %s\n", name, c.help(), name, c.kind())
		c.write(cw, name)
	}
	return cw.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Counter is a monotonically increasing uint64. The zero value is unusable;
// obtain counters from a Registry.
type Counter struct {
	h string
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) help() string { return c.h }
func (c *Counter) kind() string { return "counter" }
func (c *Counter) write(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %d\n", name, c.v.Load())
}

// CounterVec is a counter family partitioned by one label. With resolves a
// label value to its counter, creating it on first use; hot paths resolve
// once at setup time and hold the *Counter.
type CounterVec struct {
	h     string
	label string
	mu    sync.Mutex
	m     map[string]*Counter
}

// With returns the counter for the given label value.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.m == nil {
		v.m = make(map[string]*Counter)
	}
	c, ok := v.m[value]
	if !ok {
		c = &Counter{}
		v.m[value] = c
	}
	return c
}

func (v *CounterVec) help() string { return v.h }
func (v *CounterVec) kind() string { return "counter" }
func (v *CounterVec) write(w io.Writer, name string) {
	v.mu.Lock()
	values := make([]string, 0, len(v.m))
	for value := range v.m {
		values = append(values, value)
	}
	sort.Strings(values)
	counters := make([]*Counter, len(values))
	for i, value := range values {
		counters[i] = v.m[value]
	}
	v.mu.Unlock()
	for i, value := range values {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, v.label, value, counters[i].Value())
	}
}

type counterFunc struct {
	h  string
	fn func() uint64
}

func (c *counterFunc) help() string { return c.h }
func (c *counterFunc) kind() string { return "counter" }
func (c *counterFunc) write(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %d\n", name, c.fn())
}

type counterVecFunc struct {
	h      string
	label  string
	values []string
	fn     func(i int) uint64
}

func (c *counterVecFunc) help() string { return c.h }
func (c *counterVecFunc) kind() string { return "counter" }
func (c *counterVecFunc) write(w io.Writer, name string) {
	for i, value := range c.values {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, c.label, value, c.fn(i))
	}
}

// Gauge is an integer gauge.
type Gauge struct {
	h string
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (n may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) help() string { return g.h }
func (g *Gauge) kind() string { return "gauge" }
func (g *Gauge) write(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %d\n", name, g.v.Load())
}

type gaugeFunc struct {
	h  string
	fn func() float64
}

func (g *gaugeFunc) help() string { return g.h }
func (g *gaugeFunc) kind() string { return "gauge" }
func (g *gaugeFunc) write(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %s\n", name, formatFloat(g.fn()))
}

type info struct {
	h      string
	labels [][2]string
}

func (i *info) help() string { return i.h }
func (i *info) kind() string { return "gauge" }
func (i *info) write(w io.Writer, name string) {
	fmt.Fprintf(w, "%s{", name)
	for j, kv := range i.labels {
		if j > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "%s=%q", kv[0], kv[1])
	}
	fmt.Fprint(w, "} 1\n")
}

// Histogram is a Prometheus-style cumulative histogram with fixed bucket
// bounds. Observe is lock-free and allocation-free: bucket counts are
// atomic and the sum is maintained by compare-and-swap on its float bits.
//
// A histogram can optionally carry exemplars: ObserveExemplar retains the
// trace id of a recent observation per bucket, and the exposition renders
// it in the OpenMetrics exemplar syntax so a p99 bucket links straight to
// an exported trace (resolve it via /debug/trace/<id> or lan-trace).
type Histogram struct {
	h      string
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; the last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
	// exemplars[i] is the most recent exemplar observed into bucket i
	// (nil until ObserveExemplar lands one there).
	exemplars []atomic.Pointer[exemplar]
}

// exemplar links one observed value to the trace that produced it.
type exemplar struct {
	traceID string
	value   float64
}

func newHistogram(help string, bounds []float64) *Histogram {
	return &Histogram{
		h: help, bounds: bounds,
		counts:    make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[exemplar], len(bounds)+1),
	}
}

// Observe records one value. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	h.count.Add(1)
}

// ObserveExemplar records one value and retains traceID as the exemplar
// of the bucket the value lands in. An empty traceID degrades to a plain
// Observe. The exemplar store is one atomic pointer per bucket (last
// writer wins), so the call stays lock-free; it does allocate the
// exemplar record, which is why only traced observations go through it —
// the untraced hot path keeps using Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if math.IsNaN(v) {
		return
	}
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exemplars[i].Store(&exemplar{traceID: traceID, value: v})
}

// Exemplar returns the retained trace id and value of the bucket with the
// given index (0..len(bounds), the last being +Inf), or ok=false when
// that bucket has none.
func (h *Histogram) Exemplar(bucket int) (traceID string, value float64, ok bool) {
	if bucket < 0 || bucket >= len(h.exemplars) {
		return "", 0, false
	}
	e := h.exemplars[bucket].Load()
	if e == nil {
		return "", 0, false
	}
	return e.traceID, e.value, true
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns Sum/Count (0 when empty).
func (h *Histogram) Mean() float64 {
	if n := h.Count(); n > 0 {
		return h.Sum() / float64(n)
	}
	return 0
}

// Quantile returns the value at quantile q (0..1) estimated from the
// bucket upper bounds — the same estimate Prometheus' histogram_quantile
// gives, good enough for tests and status pages.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

func (h *Histogram) help() string { return h.h }
func (h *Histogram) kind() string { return "histogram" }
func (h *Histogram) write(w io.Writer, name string) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d", name, formatFloat(b), cum)
		h.writeExemplar(w, i)
		fmt.Fprintln(w)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d", name, cum)
	h.writeExemplar(w, len(h.bounds))
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
}

// writeExemplar appends bucket i's exemplar in the OpenMetrics syntax
// (` # {trace_id="..."} <value>`); buckets without one render unchanged,
// keeping the exposition plain Prometheus text until exemplars exist.
func (h *Histogram) writeExemplar(w io.Writer, i int) {
	if e := h.exemplars[i].Load(); e != nil {
		fmt.Fprintf(w, " # {trace_id=%q} %s", e.traceID, formatFloat(e.value))
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ExpBuckets returns n histogram upper bounds start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinBuckets returns n histogram upper bounds start, start+step, ...
func LinBuckets(start, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
}
