package main

import (
	"fmt"
	"time"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/pg"
)

// timed is what the parts of a timed run add up to. A timed run sets up
// several times, for setup_s, and measures a part of the window on each
// set-up rather than all of it on the last: the measurements then lie
// spread over the whole run, twice the time the window alone would span,
// and the fastest repeat (see fastest) has that much more chance of having
// met the machine undisturbed. The set-ups build the same index from the
// same seed, so what one part measured another may repeat.
type timed struct {
	passes  [][]sample    // library, churn: the client's passes in the order they ran
	replays []served      // serve: the replays of the trace
	elapsed time.Duration // serve: wall time the replays took
	dead    map[int]bool  // churn: graphs the last part's schedule deleted
}

// timedPart measures for about window on this set-up, tracing off: the
// metric wrappers forward without reading the clock, no lan.Trace is
// attached, the server keeps no trace ring.
func (b *bench) timedPart(r *report, t *timed, window time.Duration) {
	switch b.w.kind {
	case serve:
		b.servePart(r, t, window)
		return
	case churn:
		b.churnPart(r, t, window)
		return
	}
	// Whole passes over the pool: every query is asked several times in a
	// run, seconds apart. Another pass starts while at least half of it
	// fits the window.
	start := time.Now()
	for n := 0; n == 0 || time.Since(start)+time.Since(start)/time.Duration(2*n) <= window; n++ {
		t.passes = append(t.passes, b.searchLoop(searchOpts, 0, len(b.queries), 0, nil))
	}
}

// timedScore turns the parts into the end-to-end metrics and runs the
// correctness gate; b is the last set-up.
func (b *bench) timedScore(r *report, t *timed) error {
	r.set("rss_mb", rssMB(), 1)
	switch b.w.kind {
	case serve:
		return b.scoreServe(r, t)
	case churn:
		return b.scoreChurn(r, t)
	}
	b.scoreRepeats(r, t.passes, true)
	return b.gateAndRecall(r, t.passes[0], b.w.recall, b.db, nil)
}

// scoreRepeats turns passes that asked the same queries in the same order
// into the timing and NDC end-to-end metrics: a query's time is the fastest
// of its repeats (see fastest), and the rate is what one client reaches at
// those times. With same set, the index did not change between the passes
// and a repeat must return what the first pass returned.
func (b *bench) scoreRepeats(r *report, passes [][]sample, same bool) {
	walls := make([][]time.Duration, len(passes))
	n, ndc, differ := 0, 0, 0
	for i, pass := range passes {
		for j, s := range pass {
			walls[i] = append(walls[i], s.wall)
			ndc += s.st.NDC
			n++
			if same && i > 0 {
				r.attempted++
				if first := passes[0][j]; s.err != nil || !sameResults(s.res, first.res) || s.st.NDC != first.st.NDC {
					r.failed++
					differ++
				}
			}
		}
	}
	if differ > 0 {
		r.problem("%d repeated searches failed or differed from the first pass", differ)
	}
	best := fastest(walls)
	latencyMetrics(r, best)
	r.set("qps", passRate(best), n)
	r.set("ndc_mean", float64(ndc)/float64(n), n)
}

// gateAndRecall runs the correctness gate over every reply and takes
// recall on the first n queries of the pool, which lead every closed loop.
// Without writes those are the pinned queries and the truth is the
// committed one; with writes applied (dead non-nil) the truth is brute
// force over the graphs left.
func (b *bench) gateAndRecall(r *report, samples []sample, n int, db graph.Database, dead map[int]bool) error {
	c := &checker{metric: b.query.inner, dead: dead, graphOf: func(id int) *graph.Graph {
		if id < 0 || id >= len(db) {
			return nil
		}
		return db[id]
	}}
	var replies [][]lan.Result
	for i, s := range samples {
		c.reply(b.queries[s.q], s.res, s.err)
		if i < n && s.q == i && s.err == nil {
			replies = append(replies, s.res)
		}
	}
	r.absorb(c)
	if len(replies) == 0 {
		return nil
	}
	var truth [][]pg.Result
	if dead == nil {
		var err error
		if truth, _, err = b.pinnedTruth(); err != nil {
			return err
		}
	} else {
		truth = bruteForce(db, dead, b.query.inner, b.queries[:len(replies)])
	}
	r.set("recall_at_10", recallOf(replies, truth), len(replies))
	return nil
}

// tracedRun yields the per-layer metrics. The set-up ran with the metric
// wrappers on; the layer pass then times the search path on this
// workload's index, and the serving and write layers add their own.
func (b *bench) tracedRun(r *report, window time.Duration) error {
	b.setupMetrics(r)
	if err := b.layerPass(r, window/4); err != nil {
		return err
	}
	switch b.w.kind {
	case serve:
		return b.tracedServe(r, window)
	case churn:
		return b.tracedChurn(r, window)
	}
	return nil
}

// setupMetrics splits the traced set-up: time inside each metric (summed
// over the two build workers, so it can exceed the wall time), the phases
// around lan.Build, and one direct pg.Build for the proximity graph alone.
func (b *bench) setupMetrics(r *report) {
	bc, bb := b.build.totals()
	_, qb := b.query.totals()
	r.set("ged.build_calls", float64(bc), 1)
	r.set("ged.build_us_per_call", ratio(us(bb), float64(bc)), int(bc))
	r.set("setup.build_metric_busy_s", bb.Seconds(), 1)
	r.set("setup.query_metric_busy_s", qb.Seconds(), 1)
	r.set("setup.build_s", b.phase["build"].Seconds(), 1)
	r.set("setup.warm_s", b.phase["warm"].Seconds(), 1)
	if b.snap != "" {
		r.set("lanstore.save_ms", ms(b.phase["save"]), 1)
		if b.w.kind == churn {
			r.set("lanstore.open_ram_ms", ms(b.phase["open"]), 1)
		} else {
			r.set("lanstore.open_mmap_ms", ms(b.phase["open"]), 1)
		}
	}

	counted := newMeter(b.build.inner, b.tr)
	counted.on.Store(true)
	start := time.Now()
	_, err := pg.Build(b.db, pg.BuildConfig{M: 6, EfConstruction: 12, Metric: counted, Seed: indexSeed, Workers: 2})
	if err == nil {
		calls, _ := counted.totals()
		r.set("pg.build_s", time.Since(start).Seconds(), 1)
		r.set("pg.build_ged_calls", float64(calls), 1)
	}
}

// maxReplayPairs bounds the (graph, query) pairs kept for the member
// replay; replayBudget bounds the time one member's replay may take.
const (
	maxReplayPairs = 2000
	replayBudget   = 700 * time.Millisecond
)

// layerPass measures the search path from outside, over the queries that
// fit in the window: once plain (tracing off), once traced (wrapper timing
// every distance call inside a "query" span, lan.Trace attached), once
// plain with baseline routing. Then it replays recorded distance calls
// through each member of the metric.
func (b *bench) layerPass(r *report, window time.Duration) error {
	b.build.reset()
	b.query.reset()
	b.query.on.Store(false)
	plain := b.searchLoop(searchOpts, 0, 0, window, nil)
	n := len(plain)

	b.query.on.Store(true)
	b.query.maxPairs = maxReplayPairs
	firstSpan := len(b.tr.spans)
	var traces []*lan.Trace
	traced := b.searchLoop(searchOpts, 0, n, 0, &traces)
	calls, busy := b.query.totals()
	spans := b.tr.spans[firstSpan:]
	b.query.on.Store(false)

	baseOpts := searchOpts
	baseOpts.Routing = lan.BaselineRoute
	base := b.searchLoop(baseOpts, 0, n, 0, nil)

	// Tracing must not change answers: same results, same NDC.
	identical := 1.0
	var plainWall, tracedWall, baseWall time.Duration
	var st lan.Stats // sums over the traced pass
	plainNDC, baseNDC := 0, 0
	for i := range traced {
		p, t := plain[i], traced[i]
		if p.err != nil || t.err != nil || base[i].err != nil {
			return fmt.Errorf("layer pass: search failed: %v %v %v", p.err, t.err, base[i].err)
		}
		if !sameResults(p.res, t.res) || p.st.NDC != t.st.NDC {
			identical = 0
		}
		plainWall += p.wall
		tracedWall += t.wall
		baseWall += base[i].wall
		plainNDC += p.st.NDC
		baseNDC += base[i].st.NDC
		st.Total += t.st.Total
		st.DistTime += t.st.DistTime
		st.ModelTime += t.st.ModelTime
		st.InitTime += t.st.InitTime
		st.RouteTime += t.st.RouteTime
		st.NDC += t.st.NDC
		st.InitNDC += t.st.InitNDC
		st.RouteNDC += t.st.RouteNDC
		st.Explored += t.st.Explored
		st.RankerCalls += t.st.RankerCalls
		st.ISPredictions += t.st.ISPredictions
		st.BatchesOpened += t.st.BatchesOpened
		st.GammaSteps += t.st.GammaSteps
		st.RankedNeighbors += t.st.RankedNeighbors
		st.OpenedNeighbors += t.st.OpenedNeighbors
		st.DistCacheHits += t.st.DistCacheHits
	}
	if identical == 0 {
		r.problem("traced and untraced passes returned different results or NDC")
	}
	r.attempted += 3 * n
	fn := float64(n)
	perQuery := func(name string, sum float64) { r.set(name, sum/fn, n) }

	r.set("obs.trace_identical", identical, n)
	r.set("obs.trace_overhead_pct", 100*(ratio(float64(tracedWall), float64(plainWall))-1), n)

	// The harness spans give the GED share of the traced wall time: a
	// query span's self time is what the search spent outside the metric.
	self := selfTimes(spans)
	r.set("ged.busy_share", ratio(float64(self["ged.distance"]), float64(self["ged.distance"]+self["query"])), n)
	perQuery("ged.calls_per_query", float64(calls))
	r.set("ged.us_per_call", ratio(us(busy), float64(calls)), int(calls))

	perQuery("models.ms_per_query", ms(st.ModelTime))
	r.set("models.share", ratio(float64(st.ModelTime), float64(tracedWall)), n)
	perQuery("models.ranker_calls_per_query", float64(st.RankerCalls))
	perQuery("models.is_predictions_per_query", float64(st.ISPredictions))

	perQuery("route.ndc_routing_per_query", float64(st.RouteNDC))
	r.set("route.prune_rate", st.PruneRate(), st.RankedNeighbors)
	perQuery("route.gamma_steps_per_query", float64(st.GammaSteps))
	perQuery("route.batches_opened_per_query", float64(st.BatchesOpened))
	perQuery("route.explored_per_query", float64(st.Explored))
	r.set("route.ndc_vs_baseline", ratio(float64(plainNDC), float64(baseNDC)), n)
	r.set("route.ms_vs_baseline", ratio(float64(plainWall), float64(baseWall)), n)

	perQuery("core.init_ms_per_query", ms(st.InitTime))
	perQuery("core.route_ms_per_query", ms(st.RouteTime))
	perQuery("core.ndc_initial_per_query", float64(st.InitNDC))
	r.set("core.distcache_hit_share", ratio(float64(st.DistCacheHits), float64(st.DistCacheHits+st.NDC)), n)
	r.set("core.unattributed_share", ratio(float64(st.Total-st.DistTime-st.ModelTime), float64(st.Total)), n)
	perQuery("core.api_overhead_us", us(tracedWall-st.Total))

	// The program's own spans (lan.Trace) split model and store time.
	var embedInit, embedRoute, fetch time.Duration
	fetches := 0
	for _, t := range traces {
		for _, stage := range t.Spans {
			for _, c := range stage.Children {
				d := time.Duration(c.US) * time.Microsecond
				switch {
				case c.Name == "embed" && stage.Name == "initial":
					embedInit += d
				case c.Name == "embed":
					embedRoute += d
				case c.Name == "store_fetch":
					fetch += d
					fetches++
				}
			}
		}
	}
	perQuery("models.query_embed_us", us(embedInit))
	r.set("models.us_per_ranker_call", ratio(us(embedRoute), float64(st.RankerCalls)), st.RankerCalls)
	perQuery("lanstore.fetch_us_per_query", us(fetch))
	perQuery("lanstore.fetches_per_query", float64(fetches))

	b.replayMembers(r, traced, ratio(us(busy), float64(calls)))
	return nil
}

// replayMembers times each part of the query metric alone over the pairs
// the traced pass recorded. An Ensemble call runs A* first and the three
// bounds only when A* gave up, so the expected cost of a call is
// astar + (1 - finished) * (vj + hungarian + beam); that sum over the live
// cost per call is replay_vs_live_ratio, which says how far the replayed
// figures can be trusted.
func (b *bench) replayMembers(r *report, traced []sample, liveUS float64) {
	pairs := b.query.pairs
	if liveUS > 0 {
		if fit := int(us(replayBudget) / liveUS); fit < len(pairs) {
			pairs = pairs[:max(fit, 1)]
		}
	}
	n := len(pairs)
	budget, width := astarReply, 4
	if e := b.w.ensemble; e != nil {
		budget, width = e.ExactBudget, e.BeamWidth
	}
	finished := 0
	astar := replay(pairs, func(g, q *graph.Graph) float64 {
		d, ok := ged.Exact(g, q, budget)
		if ok {
			finished++
		}
		return d
	})
	vj := replay(pairs, ged.VJ)
	hung := replay(pairs, ged.Hungarian)
	beam := replay(pairs, func(g, q *graph.Graph) float64 { return ged.Beam(g, q, width) })
	prunable := 0
	lower := replay(pairs, ged.LowerBound)
	for _, p := range pairs {
		if res := traced[p.op].res; len(res) == topK && ged.LowerBound(p.g, p.q) > res[topK-1].Dist {
			prunable++
		}
	}
	finishedShare := ratio(float64(finished), float64(n))
	sum := us(hung)
	astarShare := 0.0
	if b.w.ensemble != nil {
		sum = us(astar) + (1-finishedShare)*(us(vj)+us(hung)+us(beam))
		astarShare = ratio(us(astar), sum)
	}
	objects, bytes := allocsPerCall(pairs, b.query.inner)

	r.set("ged.astar_us_per_call", us(astar), n)
	r.set("ged.astar_finished_share", finishedShare, n)
	r.set("ged.astar_share", astarShare, n)
	r.set("ged.vj_us_per_call", us(vj), n)
	r.set("ged.hungarian_us_per_call", us(hung), n)
	r.set("ged.beam_us_per_call", us(beam), n)
	r.set("ged.lowerbound_us_per_call", us(lower), n)
	r.set("ged.lowerbound_prunable_share", ratio(float64(prunable), float64(n)), n)
	r.set("ged.allocs_per_call", objects, n)
	r.set("ged.bytes_per_call", bytes, n)
	r.set("ged.replay_vs_live_ratio", ratio(sum, liveUS), n)
}
