package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/dataset"
)

// The fixed protocol every workload shares. The index seed and the
// training queries never change; --seed drives only what is asked of the
// built index (query sets, zipf draws, write schedule).
const (
	topK       = 10
	beamWidth  = 12
	indexSeed  = 1
	trainSeed  = 7
	setupRuns  = 3 // set-ups per timed run; setup_s is their median
	astarReply = 30
)

var searchOpts = lan.SearchOptions{K: topK, Beam: beamWidth, Initial: lan.LANIS, Routing: lan.LANRoute}

type kind int

const (
	library kind = iota // closed loop on Index.Search
	serve               // open loop over HTTP against lanserve
	churn               // one closed-loop client, a write after every few reads
)

// workload is one named set of inputs. Sizes are what fits the driver's
// budget on a 2-core box: one run is three set-ups, each followed by a
// third of the measured window, and the truth for the recall queries, in
// about half a minute.
type workload struct {
	name string
	kind kind
	spec dataset.Spec
	// ensemble is the query metric's ged.Ensemble; nil means the library's
	// default metric (Hungarian) for build and query alike.
	ensemble *ged.Ensemble
	train    int // training queries handed to lan.Build
	pool     int // queries in all: the pinned ones, then those made from the seed
	warm     int // untimed searches after every set-up (serve replays its trace instead)
	recall   int // pinned queries, on which recall is taken (see truth.go)
}

var workloads = []*workload{
	{name: "aids_ens", kind: library, spec: dataset.AIDS(0.002),
		ensemble: &ged.Ensemble{ExactBudget: astarReply, BeamWidth: 4},
		train:    4, pool: 32, warm: 3, recall: 24},
	{name: "syn_hung", kind: library, spec: dataset.SYN(0.00064),
		train: 12, pool: 100, warm: 20, recall: 80},
	{name: "serve_zipf", kind: serve, spec: dataset.SYN(0.00064),
		train: 12, pool: servePool, recall: 100},
	{name: "churn_rw", kind: churn, spec: dataset.SYN(0.00064),
		train: 12, pool: settledQueries, warm: 20, recall: 100},
}

// metrics returns the build and query metric; nil is the library default.
func (w *workload) metrics() (build, query ged.Metric) {
	if w.ensemble != nil {
		return ged.Ensemble{BeamWidth: 2}, *w.ensemble
	}
	return nil, nil
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// bench is one set-up of a workload: the built index and everything the
// measured window needs.
type bench struct {
	w       *workload
	seed    int64
	tr      *tracer
	db      graph.Database
	queries []*graph.Graph
	build   *meter // build metric: PG construction, inserts, optimizer
	query   *meter // query metric: distance table, searches
	idx     *lan.Index
	dir     string // scratch directory holding the snapshot
	snap    string // snapshot path ("" on the library workloads)
	phase   map[string]time.Duration
	srv     *httpServer // serve only
	draws   *zipf       // serve only
	trace   []int       // serve only: the pool queries of the replayed trace, in order
}

// makeQueries makes the queries at positions first..first+n-1 of a walk
// over the database: each perturbs the member at its position by 0-2 edit
// operations, as in the paper's protocol. The walk is a fixed permutation
// (every member is used once before any is used twice) and only the edits
// come from the seed, because what a query costs is set mostly by the
// member it starts from, and the 90th percentile of a pool as small as
// aids_ens's is one of its few costliest queries: with seeded bases and a
// pool of 32 it spread by 0.17 between seeds.
func makeQueries(db graph.Database, spec dataset.Spec, first, n int, seed int64) ([]*graph.Graph, error) {
	walk := rand.New(rand.NewSource(pinnedSeed))
	rng := rand.New(rand.NewSource(seed))
	specs := make([]dataset.QuerySpec, 0, n)
	var perm []int
	for i := 0; i < first+n; i++ {
		if i%len(db) == 0 {
			perm = walk.Perm(len(db))
		}
		if i >= first {
			specs = append(specs, dataset.QuerySpec{Base: perm[i%len(db)], Ops: rng.Intn(3), Seed: rng.Int63()})
		}
	}
	return dataset.FixedWorkload(db, spec, specs)
}

// setup builds the workload's index from nothing, as a user would:
// generate the database, lan.Build, then whatever stands between the built
// index and the first measured operation (snapshot save and open, listener,
// cache warm-up, warm-up queries). metersOn selects the traced set-up.
func setup(w *workload, seed int64, tr *tracer, metersOn bool) (b *bench, err error) {
	b = &bench{w: w, seed: seed, tr: tr, phase: make(map[string]time.Duration)}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	timed := func(name string, f func() error) error {
		start := time.Now()
		err := f()
		b.phase[name] += time.Since(start)
		return err
	}

	buildMetric, queryMetric := w.metrics()
	b.build, b.query = newMeter(buildMetric, tr), newMeter(queryMetric, tr)
	b.build.on.Store(metersOn)
	b.query.on.Store(metersOn)
	opts := lan.Options{
		M: 6, Dim: 16, Epochs: 1, LR: 0.01, GammaKNN: 20,
		BuildMetric: b.build, QueryMetric: b.query,
		Workers: 2, QueryWorkers: 0, Seed: indexSeed,
	}

	err = timed("build", func() error {
		b.db = w.spec.Generate()
		train := dataset.Workload(b.db, w.spec, w.train, trainSeed)
		if b.queries, err = makeQueries(b.db, w.spec, 0, w.recall, pinnedSeed); err != nil {
			return err
		}
		// Twice the seeded queries needed: one that the server's result
		// cache cannot tell from an earlier one is left out. Two queries with
		// one Weisfeiler-Lehman hash share a cache entry, yet an approximate
		// GED may rank for them differently, and the gate would then fail a
		// reply that the server, by its own rules, answered rightly.
		seeded, err := makeQueries(b.db, w.spec, w.recall, 2*(w.pool-w.recall), seed)
		if err != nil {
			return err
		}
		keys := make(map[string]bool)
		for _, q := range b.queries {
			keys[graph.Hash(q, 2)] = true
		}
		for _, q := range seeded {
			if key := graph.Hash(q, 2); !keys[key] && len(b.queries) < w.pool {
				keys[key] = true
				b.queries = append(b.queries, q)
			}
		}
		if len(b.queries) < w.pool {
			return fmt.Errorf("seed %d gives only %d distinct queries, want %d", seed, len(b.queries), w.pool)
		}
		b.idx, err = lan.Build(b.db, train, opts)
		return err
	})
	if err != nil {
		return b, fmt.Errorf("build: %w", err)
	}

	if w.kind != library {
		// The server and the writer start from a snapshot on disk, as
		// lan-serve does: mmap and read-only behind the server, RAM and
		// writable under churn.
		if err = os.MkdirAll(".bench_build", 0o755); err != nil {
			return b, err
		}
		if b.dir, err = os.MkdirTemp(".bench_build", "lanbench-"); err != nil {
			return b, err
		}
		b.snap = filepath.Join(b.dir, w.name+".lansnap")
		err = timed("save", func() error { return b.idx.SaveSnapshot(b.snap, lan.SnapshotOptions{}) })
		if err != nil {
			return b, fmt.Errorf("save snapshot: %w", err)
		}
		built := b.idx
		err = timed("open", func() error {
			opts.Store = lan.StoreMMap
			if w.kind == churn {
				opts.Store = lan.StoreRAM
			}
			b.idx, err = lan.OpenSnapshot(b.snap, opts)
			return err
		})
		if err != nil {
			b.idx = built
			return b, fmt.Errorf("open snapshot: %w", err)
		}
		if err = built.Close(); err != nil {
			return b, err
		}
	}

	err = timed("warm", func() error {
		if w.kind == serve {
			ring := -1 // tracing off
			if metersOn {
				ring = 0 // lanserve's default ring
			}
			return b.startServer(ring)
		}
		for i := 0; i < w.warm; i++ {
			q := b.queries[len(b.queries)-1-i]
			if _, _, err := b.idx.Search(q, searchOpts); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return b, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

func (b *bench) setupTime() time.Duration {
	var d time.Duration
	for _, p := range b.phase {
		d += p
	}
	return d
}

// close stops everything the set-up started and removes its files.
func (b *bench) close() {
	if b.srv != nil {
		b.srv.stop()
		b.srv = nil
	}
	if b.idx != nil {
		b.idx.Close()
		b.idx = nil
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
		b.dir = ""
	}
}

// sample is one search as its caller saw it.
type sample struct {
	q    int // index into bench.queries
	wall time.Duration
	res  []lan.Result
	st   lan.Stats
	err  error
}

// searchLoop is the closed loop of one client: the next query goes out
// when the previous one has returned, for count queries or, with count 0,
// until the window has passed (and at least one query has run). With
// traces non-nil every search runs inside a harness "query" span with a
// lan.Trace attached, and the traces are appended to it.
func (b *bench) searchLoop(so lan.SearchOptions, first, count int, window time.Duration, traces *[]*lan.Trace) []sample {
	var out []sample
	start := time.Now()
	for i := 0; ; i++ {
		if count > 0 && i == count {
			break
		}
		if count == 0 && i > 0 && time.Since(start) >= window {
			break
		}
		qi := (first + i) % len(b.queries)
		ctx := context.Background()
		t0 := time.Now()
		var id int
		if traces != nil {
			lt := lan.NewTrace(fmt.Sprintf("%s-%d", b.w.name, qi))
			*traces = append(*traces, lt)
			ctx = lan.WithTrace(ctx, lt)
			id = b.tr.begin("query", i, t0)
			b.query.enter(id, i)
		}
		res, st, err := b.idx.SearchContext(ctx, b.queries[qi], so)
		t1 := time.Now()
		if traces != nil {
			b.query.enter(0, 0)
			b.tr.finish(id, t1)
		}
		out = append(out, sample{q: qi, wall: t1.Sub(t0), res: res, st: st, err: err})
	}
	return out
}

// checker is the correctness gate. Every reply must hold K results in
// ascending (distance, id) order with ids that exist and are live; every
// twentieth reply also has its distances recomputed with the query metric.
type checker struct {
	metric    ged.Metric
	graphOf   func(id int) *graph.Graph
	dead      map[int]bool
	attempted int
	failed    int
	firstErr  error
}

func (c *checker) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

func (c *checker) reply(q *graph.Graph, res []lan.Result, err error) {
	c.attempted++
	if err == nil {
		err = c.verify(q, res, c.attempted%20 == 0)
	}
	if err != nil {
		c.fail(err)
	}
}

func (c *checker) verify(q *graph.Graph, res []lan.Result, recompute bool) error {
	if len(res) != topK {
		return fmt.Errorf("reply has %d results, want %d", len(res), topK)
	}
	for i, r := range res {
		g := c.graphOf(r.ID)
		if g == nil || c.dead[r.ID] {
			return fmt.Errorf("result id %d is not a live graph", r.ID)
		}
		if i > 0 {
			p := res[i-1]
			if p.Dist > r.Dist || (sameDist(p.Dist, r.Dist) && p.ID >= r.ID) {
				return fmt.Errorf("results not ascending by (dist, id) at rank %d", i)
			}
		}
		if recompute {
			if d := c.metric.Distance(g, q); !sameDist(d, r.Dist) {
				return fmt.Errorf("result id %d: reported distance %v, recomputed %v", r.ID, r.Dist, d)
			}
		}
	}
	return nil
}

func sameDist(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func sameResults(a, b []lan.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !sameDist(a[i].Dist, b[i].Dist) {
			return false
		}
	}
	return true
}

// latencyMetrics fills the user-facing latency figures from one wall time
// per operation.
func latencyMetrics(r *report, walls []time.Duration) {
	v := sortedCopy(durationsMS(walls))
	r.set("query_p50_ms", percentile(v, 50), len(v))
	r.set("query_p90_ms", percentile(v, 90), len(v))
}

// fastest returns, for each position of a pass, the shortest time any of
// the passes measured there (negative times, failed operations, are left
// out; a position that failed in every pass is dropped). The passes ask the
// same things in the same order, and whatever else runs on the host can only
// ever add to a time, so the shortest is the closest a run gets to what the
// program itself costs. This machine is a few virtual cores of a shared
// host: a core runs at anything down to half its speed for tenths of a
// second or for minutes while a neighbour keeps it busy, and nothing in the
// guest shows it. A median over the window follows that; the fastest of a
// dozen repeats, seconds apart, mostly does not, and the more repeats the
// less it does: hence the small pools.
func fastest(passes [][]time.Duration) []time.Duration {
	var out []time.Duration
	for i := range passes[0] {
		best := time.Duration(-1)
		for _, p := range passes {
			if i < len(p) && p[i] >= 0 && (best < 0 || p[i] < best) {
				best = p[i]
			}
		}
		if best >= 0 {
			out = append(out, best)
		}
	}
	return out
}

// passRate is the operations one closed-loop client completes per second:
// the operations of a pass over the time it spent in them.
func passRate(walls []time.Duration) float64 {
	var sum time.Duration
	for _, w := range walls {
		sum += w
	}
	return float64(len(walls)) / sum.Seconds()
}

func (b *bench) graphs(idx []int) []*graph.Graph {
	out := make([]*graph.Graph, len(idx))
	for i, q := range idx {
		out[i] = b.queries[q]
	}
	return out
}
