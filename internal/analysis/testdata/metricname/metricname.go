// Package fixture exercises the metricname analyzer: registration sites
// with non-conforming names, counter/suffix mismatches, dynamic names,
// duplicate registrations and dead families (handles never recorded to)
// must be flagged; conforming, recorded-to sites and methods of unrelated
// types that happen to share names must not.
package fixture

import "github.com/lansearch/lan/internal/obs"

// wellFormed registers one family of each kind under conforming names and
// records to every hand-driven handle, so nothing here is dead.
func wellFormed(r *obs.Registry) {
	events := r.Counter("lan_fixture_events_total", "Events.")
	errors := r.CounterVec("lan_fixture_errors_total", "Errors by code.", "code")
	r.CounterFunc("lan_fixture_pulls_total", "Pulls.", func() uint64 { return 0 })
	depth := r.Gauge("lan_fixture_depth", "Depth.")
	r.GaugeFunc("lan_fixture_ratio", "Ratio.", func() float64 { return 0 })
	lat := r.Histogram("lan_fixture_seconds", "Latency.", obs.ExpBuckets(0.001, 10, 4))
	r.Info("lan_fixture_build_info", "Build metadata.", nil)
	events.Inc()
	errors.With("io").Inc()
	depth.Set(1)
	lat.Observe(0.5)
}

// constName is fine: the name is still a compile-time constant.
const fixtureQueueName = "lan_fixture_queue_waits_total"

func constNameOK(r *obs.Registry) {
	waits := r.Counter(fixtureQueueName, "Queue waits.")
	waits.Inc()
}

func badPattern(r *obs.Registry) {
	camel := r.Counter("lanFixtureCamel_total", "Camel case.") // want "does not match"
	camel.Inc()
	noPrefix := r.Gauge("queue_depth", "No lan prefix.") // want "does not match"
	noPrefix.Set(0)
}

func badSuffix(r *obs.Registry) {
	reqs := r.Counter("lan_fixture_requests", "Counter without _total.") // want "must end in _total"
	reqs.Inc()
	inflight := r.Gauge("lan_fixture_inflight_total", "Gauge ending _total.") // want "must not end in _total"
	inflight.Inc()
	ndc := r.Histogram("lan_fixture_ndc_total", "Histogram total.", nil) // want "must not end in _total"
	ndc.Observe(1)
}

func dynamicName(r *obs.Registry, name string) {
	dyn := r.Counter(name, "Runtime-assembled name.") // want "compile-time string constant"
	dyn.Inc()
}

func duplicate(r *obs.Registry) {
	first := r.Counter("lan_fixture_dup_total", "First site.")
	second := r.Counter("lan_fixture_dup_total", "Second site.") // want "registered more than once"
	first.Inc()
	second.Inc()
}

func suppressed(r *obs.Registry) {
	legacy := r.Gauge("legacy_queue_depth", "Suppressed on purpose.") //lint:allow metricname legacy dashboard name kept for continuity
	legacy.Set(0)
}

// fixtureReg anchors the package-level dead-family cases.
var fixtureReg = obs.NewRegistry()

// deadDepth is registered and then never touched again: the exported
// family silently reads zero forever.
var deadDepth = fixtureReg.Gauge("lan_fixture_dead_depth", "Never set.") // want "dead family"

// holder exercises the struct-field handle path: the field is written at
// registration and never read or recorded to.
type holder struct {
	held *obs.Counter
}

func fillHolder(r *obs.Registry) holder {
	return holder{
		held: r.Counter("lan_fixture_held_total", "Dead via field."), // want "dead family"
	}
}

func discarded(r *obs.Registry) {
	r.Counter("lan_fixture_dropped_total", "Dead on arrival.")      // want "discarded"
	_ = r.Counter("lan_fixture_blank_total", "Blanked on arrival.") // want "discarded"
}

func deadSuppressed(r *obs.Registry) {
	//lint:allow metricname scrape-side family; read by the exporter, not this module
	r.Gauge("lan_fixture_exported_depth", "Suppressed dead family.")
}

// decoy has methods named like registry registrations; calls through it
// must not be flagged.
type decoy struct{}

func (decoy) Counter(name, help string) {}
func (decoy) Gauge(name, help string)   {}

func unrelatedReceiver(d decoy) {
	d.Counter("whatever", "Not a metric registration.")
	d.Gauge("alsoWhatever", "Not a metric registration.")
}

// traceFamily mirrors the exporter's lan_obs_trace_* counters: the naming
// rule covers the trace-pipeline family like any other, including the
// counter _total suffix.
func traceFamily(r *obs.Registry) {
	dropped := r.Counter("lan_obs_trace_dropped_total", "Traces dropped by the bounded queue.")
	exported := r.Counter("lan_obs_trace_exported_total", "Traces written to segments.")
	segments := r.Counter("lan_obs_trace_segments_total", "Segment files opened.")
	queue := r.Gauge("lan_obs_trace_queue_depth", "Traces waiting for the writer.")
	bad := r.Counter("lan_obs_trace_dropped", "Counter without _total.") // want "must end in _total"
	dropped.Inc()
	exported.Inc()
	segments.Inc()
	queue.Set(0)
	bad.Inc()
}

// rankerFamily mirrors the engine's lan_ranker_* counters (M_rk
// inferences run and memo hits): a two-word name before the unit is
// fine, the counter suffix is still required.
func rankerFamily(r *obs.Registry) {
	inferences := r.Counter("lan_ranker_inferences_total", "Cross-graph inferences run.")
	hits := r.Counter("lan_ranker_memo_hits_total", "Scores served from the memo.")
	bad := r.Counter("lan_ranker_memo_hits", "Counter without _total.") // want "must end in _total"
	inferences.Inc()
	hits.Inc()
	bad.Inc()
}

// gedFamily mirrors lan_ged_ensemble_best_total: a callback-driven family
// partitioned by a label is named like any counter, and registering it is
// what makes it live — there is no handle to go dead.
func gedFamily(r *obs.Registry) {
	members := []string{"vj", "hungarian", "beam"}
	r.CounterVecFunc("lan_ged_ensemble_best_total", "Fallback calls by best member.", "member", members,
		func(i int) uint64 { return 0 })
	r.CounterVecFunc("lan_ged_ensemble_best", "Counter without _total.", "member", members, // want "must end in _total"
		func(i int) uint64 { return 0 })
}
