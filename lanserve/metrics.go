package lanserve

import (
	"io"
	"strconv"

	"github.com/lansearch/lan/internal/obs"
)

// Metrics is the server's observability surface, built on the shared
// internal/obs registry: request/error/cache counters, admission gauges,
// a latency histogram, and the paper's per-query cost metrics (NDC,
// routing steps, pruning rate) aggregated from core.QueryStats. NDC is
// the paper's primary efficiency measure, so the serving layer exposes it
// as a first-class signal rather than burying it in logs.
//
// Each Server owns its own registry (so two servers in one process don't
// share counters); /metrics additionally renders the process-wide
// obs.Default() families. All methods are safe for concurrent use.
type Metrics struct {
	reg *obs.Registry

	requests *obs.Counter
	errors   *obs.CounterVec
	rejected *obs.Counter // 429: admission queue full
	timeouts *obs.Counter // 504: deadline expired (queued or in flight)
	panics   *obs.Counter // recovered handler panics (also counted as 500s)

	cacheHits *obs.Counter
	cacheMiss *obs.Counter
	cacheRej  *obs.Counter // computed answers the cache did not store
	sfShared  *obs.Counter // responses reused from an identical in-flight query

	inflight *obs.Gauge // searches currently executing on a worker
	queued   *obs.Gauge // searches admitted but waiting for a worker

	latency *obs.Histogram // seconds, full request wall time
	ndc     *obs.Histogram // GED computations per (uncached) query
	steps   *obs.Histogram // routing steps (explored PG nodes) per query
	pruning *obs.Histogram // 1 - NDC/|DB| per query

	writes       *obs.CounterVec // /insert + /delete requests by op
	writeLatency *obs.Histogram  // seconds, applied-write wall time
}

func newMetrics() *Metrics {
	r := obs.NewRegistry()
	return &Metrics{
		reg:      r,
		requests: r.Counter("lanserve_requests_total", "Search requests received."),
		errors:   r.CounterVec("lanserve_errors_total", "Non-200 responses by status code.", "code"),
		rejected: r.Counter("lanserve_rejected_total", "Requests refused with 429 (admission queue full)."),
		timeouts: r.Counter("lanserve_timeouts_total", "Requests that exceeded their deadline (504)."),
		panics:   r.Counter("lanserve_panics_total", "Recovered handler panics."),

		cacheHits: r.Counter("lanserve_cache_hits_total", "Result-cache hits."),
		cacheMiss: r.Counter("lanserve_cache_misses_total", "Result-cache misses."),
		cacheRej:  r.Counter("lanserve_cache_admission_rejected_total", "Computed answers the result cache did not store (less frequent than its LRU entry, or computed before an index write)."),
		sfShared:  r.Counter("lanserve_singleflight_shared_total", "Responses reused from an identical in-flight query."),

		inflight: r.Gauge("lanserve_inflight", "Searches currently executing."),
		queued:   r.Gauge("lanserve_queued", "Searches admitted and waiting for a worker."),

		// 10us..10s in doublings: sub-millisecond resolution for cache hits
		// and tiny-index queries at the low end, heavy ensemble-GED queries
		// on large indexes at the high end.
		latency: r.Histogram("lanserve_request_seconds", "Search request wall time in seconds.", obs.ExpBuckets(1e-5, 2, 21)),
		ndc:     r.Histogram("lanserve_query_ndc", "GED computations (NDC) per executed query.", obs.ExpBuckets(1, 2, 14)),
		steps:   r.Histogram("lanserve_query_routing_steps", "Routing steps (explored PG nodes) per executed query.", obs.ExpBuckets(1, 2, 12)),
		pruning: r.Histogram("lanserve_query_pruning_rate", "Fraction of the database whose GED was never computed, per executed query.", obs.LinBuckets(0.1, 0.1, 9)),

		// 10us..10s: an insert extends the HNSW (a bounded beam search per
		// layer), a delete only stamps a tombstone.
		writes:       r.CounterVec("lanserve_write_requests_total", "Write requests received by operation (insert, delete).", "op"),
		writeLatency: r.Histogram("lanserve_write_seconds", "Applied-write wall time in seconds.", obs.ExpBuckets(1e-5, 4, 11)),
	}
}

// Request counts one admitted /search request.
func (m *Metrics) Request() { m.requests.Inc() }

// Write counts one /insert or /delete request by operation.
func (m *Metrics) Write(op string) { m.writes.With(op).Inc() }

// ObserveWrite records one applied write's wall time in seconds.
func (m *Metrics) ObserveWrite(seconds float64) { m.writeLatency.Observe(seconds) }

// Error counts one non-200 response with its status code.
func (m *Metrics) Error(code int) {
	m.errors.With(strconv.Itoa(code)).Inc()
	switch code {
	case statusTooManyRequests:
		m.rejected.Inc()
	case statusGatewayTimeout:
		m.timeouts.Inc()
	}
}

// Panic counts one recovered handler panic.
func (m *Metrics) Panic() { m.panics.Inc() }

// Cache counts one result-cache lookup.
func (m *Metrics) Cache(hit bool) {
	if hit {
		m.cacheHits.Inc()
	} else {
		m.cacheMiss.Inc()
	}
}

// CacheRejected counts one computed answer the result cache did not
// store.
func (m *Metrics) CacheRejected() { m.cacheRej.Inc() }

// SingleflightShared counts one response reused from an identical
// in-flight query (single-flight deduplication).
func (m *Metrics) SingleflightShared() { m.sfShared.Inc() }

// SingleflightSharedTotal returns the shared-response counter (used by
// tests).
func (m *Metrics) SingleflightSharedTotal() uint64 { return m.sfShared.Value() }

// QueueEnter / QueueExit track the admitted-but-waiting gauge.
func (m *Metrics) QueueEnter() { m.queued.Inc() }

// QueueExit decrements the waiting gauge.
func (m *Metrics) QueueExit() { m.queued.Dec() }

// WorkStart / WorkEnd track the in-flight gauge.
func (m *Metrics) WorkStart() { m.inflight.Inc() }

// WorkEnd decrements the in-flight gauge.
func (m *Metrics) WorkEnd() { m.inflight.Dec() }

// ObserveLatency records one completed request's wall time in seconds. A
// traced request passes its trace id, which stays as the landing bucket's
// exemplar, so a latency bucket in /metrics links straight to
// /debug/trace/<id>; an untraced one passes "".
func (m *Metrics) ObserveLatency(seconds float64, traceID string) {
	m.latency.ObserveExemplar(seconds, traceID)
}

// ObserveQuery records the per-query cost telemetry of one executed
// (uncached) search: NDC, routing steps, and the pruning rate
// 1 - NDC/indexSize (the fraction of the database whose GED was never
// computed — the quantity LAN's learned routing exists to maximize). A
// non-empty traceID stays as the NDC bucket's exemplar, so an outlier
// NDC bucket names a concrete trace to replay.
func (m *Metrics) ObserveQuery(ndc, explored, indexSize int, traceID string) {
	m.ndc.ObserveExemplar(float64(ndc), traceID)
	m.steps.Observe(float64(explored))
	if indexSize > 0 {
		m.pruning.Observe(1 - float64(ndc)/float64(indexSize))
	}
}

// CacheHits returns the cache-hit counter (used by tests and /readyz-style
// introspection).
func (m *Metrics) CacheHits() uint64 { return m.cacheHits.Value() }

// WriteTo renders the server's registry in the Prometheus text exposition
// format (the process-wide families are appended by the /metrics handler,
// not here, so library users composing their own exposition keep control).
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	return m.reg.WriteTo(w)
}
