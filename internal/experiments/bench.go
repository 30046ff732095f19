package experiments

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"github.com/lansearch/lan/internal/core"
	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/internal/models"
	"github.com/lansearch/lan/internal/mutable"
	"github.com/lansearch/lan/internal/obs"
	"github.com/lansearch/lan/internal/pg"
)

// BenchPoint is one (dataset, beam) row of the machine-readable benchmark
// summary lan-bench writes to BENCH_<timestamp>.json. Latencies are
// per-query wall times sampled individually (not derived from the batch
// total), so the percentiles reflect the tail the serving layer would see.
type BenchPoint struct {
	Dataset      string  `json:"dataset"`
	Graphs       int     `json:"graphs"`
	Queries      int     `json:"queries"`
	K            int     `json:"k"`
	Beam         int     `json:"beam"`
	BuildSeconds float64 `json:"build_seconds"`
	RecallAtK    float64 `json:"recall_at_k"`
	NDCMean      float64 `json:"ndc_mean"`
	NDCMedian    float64 `json:"ndc_median"`
	// Per-stage NDC means split the total between initial-node selection
	// and routing; PruneRateMean is the mean of 1 - opened/ranked over
	// queries that ranked at least one neighbor, and GammaStepsMean the
	// mean number of np_route γ-increments.
	NDCInitialMean float64 `json:"ndc_initial_mean"`
	NDCRoutingMean float64 `json:"ndc_routing_mean"`
	PruneRateMean  float64 `json:"prune_rate_mean"`
	GammaStepsMean float64 `json:"gamma_steps_mean"`
	LatencyP50us   float64 `json:"latency_p50_us"`
	LatencyP90us   float64 `json:"latency_p90_us"`
	LatencyP99us   float64 `json:"latency_p99_us"`
	QPS            float64 `json:"qps"`
}

// BuildPoint is one dataset's index-build speedup measurement: the same
// proximity graph constructed sequentially and with the worker pool, with
// a bit-identity check between the two results.
type BuildPoint struct {
	Dataset           string  `json:"dataset"`
	Graphs            int     `json:"graphs"`
	Workers           int     `json:"workers"`
	SequentialSeconds float64 `json:"sequential_seconds"`
	ParallelSeconds   float64 `json:"parallel_seconds"`
	Speedup           float64 `json:"speedup"`
	// Identical reports whether the parallel build produced exactly the
	// sequential index (adjacency, upper layers, levels and entry point).
	Identical bool `json:"identical"`
}

// MutatePoint is one dataset's write-path measurement: the database's
// last quarter streamed into a prefix-built index (per-insert apply
// latency), the optimizer quiesced, incremental recall compared against
// the batch-built engine under the model-free strategies (HNSW descent +
// baseline routing, so the comparison isolates proximity-graph quality),
// and finally a sweep of soft deletes (per-delete apply latency).
type MutatePoint struct {
	Dataset string `json:"dataset"`
	Graphs  int    `json:"graphs"`
	Inserts int    `json:"inserts"`
	Deletes int    `json:"deletes"`
	// Apply latencies are wall times of Index.Insert / Index.Delete —
	// snapshot publication included, background optimization excluded.
	InsertP50us    float64 `json:"insert_p50_us"`
	InsertP99us    float64 `json:"insert_p99_us"`
	DeleteP50us    float64 `json:"delete_p50_us"`
	DeleteP99us    float64 `json:"delete_p99_us"`
	QuiesceSeconds float64 `json:"quiesce_seconds"`
	// Recall at the protocol's K over the test workload, ground truth
	// shared with the read-path points.
	BatchRecall       float64 `json:"batch_recall"`
	IncrementalRecall float64 `json:"incremental_recall"`
	FinalEpoch        uint64  `json:"final_epoch"`
}

// TracePoint is one dataset's trace-overhead measurement: the bench
// workload answered once untraced and once with a per-query trace
// recorded and exported through the async JSONL exporter, with the p50
// latency regression between the legs and a bit-identity check over every
// query's answers and NDC (tracing must only observe).
type TracePoint struct {
	Dataset string  `json:"dataset"`
	Queries int     `json:"queries"`
	Beam    int     `json:"beam"`
	Sample  float64 `json:"sample"`
	// Per-leg p50 latency over each query's min-of-k, and the regression
	// in percent as the median of per-query paired on/off ratios — pairing
	// compares every query against itself, so query-to-query workload
	// spread cancels out of the estimate (negative when the traced leg
	// happened to be faster).
	OffP50us      float64 `json:"off_p50_us"`
	OnP50us       float64 `json:"on_p50_us"`
	P50RegressPct float64 `json:"p50_regress_pct"`
	// Exported counts the traces replayed back from the segment files
	// after the run — the export round-trip check.
	Exported  int  `json:"exported"`
	Identical bool `json:"identical"`
}

// MutationMetrics snapshots the process-wide write-path counters
// (internal/obs) after the benchmark ran; like RoutingMetrics they
// describe the whole process, not one dataset.
type MutationMetrics struct {
	InsertsTotal         uint64  `json:"inserts_total"`
	DeletesTotal         uint64  `json:"deletes_total"`
	OptimizerPassesTotal uint64  `json:"optimizer_passes_total"`
	ApplyCount           uint64  `json:"apply_count"`
	ApplyMeanSeconds     float64 `json:"apply_mean_seconds"`
	ApplyP99Seconds      float64 `json:"apply_p99_seconds"`
}

// RoutingMetrics snapshots the process-wide observability counters
// (internal/obs) after the benchmark ran: every search of the run —
// figures, tables and the summary legs alike — contributes, so the
// totals describe the whole process, not one (dataset, beam) cell.
type RoutingMetrics struct {
	Queries           uint64  `json:"queries"`
	NDCInitialTotal   uint64  `json:"ndc_initial_total"`
	NDCRoutingTotal   uint64  `json:"ndc_routing_total"`
	NDCVerifyTotal    uint64  `json:"ndc_verify_total"`
	BatchesOpened     uint64  `json:"batches_opened_total"`
	RankerCalls       uint64  `json:"ranker_calls_total"`
	PruneRateMean     float64 `json:"prune_rate_mean"`
	GammaStepsMean    float64 `json:"gamma_steps_mean"`
	DistCacheHitRatio float64 `json:"dist_cache_hit_ratio"`
}

// BenchReport is the full JSON document: the protocol knobs that shaped
// the run plus one point per (dataset, beam) and one build-speedup point
// per dataset. GeneratedAt is stamped by the caller (lan-bench) at write
// time.
type BenchReport struct {
	GeneratedAt string  `json:"generated_at,omitempty"`
	Scale       float64 `json:"scale"`
	K           int     `json:"k"`
	Dim         int     `json:"dim"`
	Epochs      int     `json:"epochs"`
	Workers     int     `json:"workers"`
	Seed        int64   `json:"seed"`
	// Store records the storage tier the query measurements ran on
	// ("ram" when empty; "mmap" means every query point exercised the
	// memory-mapped candidate-fetch path).
	Store        string        `json:"store,omitempty"`
	Points       []BenchPoint  `json:"points"`
	Builds       []BuildPoint  `json:"builds"`
	MutatePoints []MutatePoint `json:"mutate_points"`
	// StorePoints carries the storage-tier scalability sweep (-exp scal)
	// when it ran in the same process: per (size, quantization) cell,
	// RAM-vs-mmap identity, quantization recall epsilon, and resident
	// memory of both tiers.
	StorePoints []StorePoint `json:"store_points,omitempty"`
	// TracePoints carries the trace-overhead leg (Protocol.TraceDir set):
	// per dataset, the p50 cost of tracing + export at the widest beam.
	TracePoints []TracePoint    `json:"trace_points,omitempty"`
	Routing     RoutingMetrics  `json:"routing_metrics"`
	Mutation    MutationMetrics `json:"mutation_metrics"`
}

// snapshotMutationMetrics reads the process-wide write-path counters.
func snapshotMutationMetrics() MutationMetrics {
	m := obs.Mutate()
	return MutationMetrics{
		InsertsTotal:         m.Inserts.Value(),
		DeletesTotal:         m.Deletes.Value(),
		OptimizerPassesTotal: m.OptimizerPasses.Value(),
		ApplyCount:           m.ApplySeconds.Count(),
		ApplyMeanSeconds:     m.ApplySeconds.Mean(),
		ApplyP99Seconds:      m.ApplySeconds.Quantile(0.99),
	}
}

// snapshotRoutingMetrics reads the process-wide query counters.
func snapshotRoutingMetrics() RoutingMetrics {
	q := obs.Query()
	m := RoutingMetrics{
		Queries:         q.Queries.Value(),
		NDCInitialTotal: q.NDCInitial.Value(),
		NDCRoutingTotal: q.NDCRouting.Value(),
		NDCVerifyTotal:  q.NDCVerify.Value(),
		BatchesOpened:   q.BatchesOpened.Value(),
		RankerCalls:     q.RankerCalls.Value(),
		PruneRateMean:   q.PruningRatio.Mean(),
		GammaStepsMean:  q.GammaSteps.Mean(),
	}
	hits, misses := q.DistCacheHits.Value(), q.DistCacheMisses.Value()
	if total := hits + misses; total > 0 {
		m.DistCacheHitRatio = float64(hits) / float64(total)
	}
	return m
}

// Bench measures the default LAN configuration (LAN_IS + LAN_Route) per
// dataset and beam size, reusing any environments cache already built for
// the figures.
func Bench(p Protocol, cache *EnvCache) (*BenchReport, error) {
	rep := &BenchReport{
		Scale: p.Scale, K: p.K, Dim: p.Dim, Epochs: p.TrainEpochs,
		Workers: p.workers(), Seed: p.Seed,
	}
	for _, spec := range p.Specs() {
		env, err := cache.Get(p, spec)
		if err != nil {
			return nil, err
		}
		for _, beam := range p.Beams {
			rep.Points = append(rep.Points, benchPoint(env, beam))
		}
		rep.Builds = append(rep.Builds, buildPoint(env))
		mp, err := mutatePoint(env)
		if err != nil {
			return nil, err
		}
		rep.MutatePoints = append(rep.MutatePoints, mp)
		if p.TraceDir != "" && len(p.Beams) > 0 {
			tp, err := tracePoint(env, p.Beams[len(p.Beams)-1])
			if err != nil {
				return nil, err
			}
			rep.TracePoints = append(rep.TracePoints, tp)
		}
	}
	rep.Store = p.Store
	rep.StorePoints = cache.storePoints
	rep.Routing = snapshotRoutingMetrics()
	rep.Mutation = snapshotMutationMetrics()
	return rep, nil
}

// mutatePoint builds the dataset's index over the first three quarters of
// the database, streams the last quarter in through the write path, and
// measures apply latencies, quiesce time and the batch-vs-incremental
// recall gap, then sweeps soft deletes over one in eight graphs.
func mutatePoint(env *Env) (MutatePoint, error) {
	p := env.Protocol
	db := env.DB
	prefix := len(db) * 3 / 4
	eng, err := core.Build(db[:prefix], env.Train, core.Options{
		M: 6, Dim: p.Dim, GammaKNN: 2 * p.K,
		BuildMetric: p.buildMetric(),
		QueryMetric: p.QueryMetric,
		Train:       models.TrainOptions{Epochs: p.TrainEpochs, LR: 0.01},
		Workers:     p.Workers,
		Seed:        p.Seed,
	})
	if err != nil {
		return MutatePoint{}, fmt.Errorf("experiments: %s prefix build: %w", env.Spec.Name, err)
	}
	x, err := mutable.New(eng, nil)
	if err != nil {
		return MutatePoint{}, err
	}
	defer x.Close()

	insLat := make([]float64, 0, len(db)-prefix) // microseconds
	for _, g := range db[prefix:] {
		start := time.Now()
		if _, err := x.Insert(g); err != nil {
			return MutatePoint{}, fmt.Errorf("experiments: %s insert: %w", env.Spec.Name, err)
		}
		insLat = append(insLat, float64(time.Since(start).Microseconds()))
	}
	quiesceStart := time.Now()
	x.Quiesce()
	quiesce := time.Since(quiesceStart).Seconds()

	beam := 2 * p.K
	if len(p.Beams) > 0 {
		beam = p.Beams[len(p.Beams)-1]
	}
	so := core.SearchOptions{K: p.K, Beam: beam, Initial: core.HNSWIS, Routing: core.BaselineRoute}
	snap := x.Snapshot()
	var batch, incr float64
	for i, q := range env.Test {
		bres, _ := search(env.Engine, nil, q, so)
		ires, _ := search(snap.Engine, nil, q, so)
		batch += dataset.Recall(bres, env.Truth[i].Results)
		incr += dataset.Recall(ires, env.Truth[i].Results)
	}
	n := float64(len(env.Test))

	delLat := make([]float64, 0, len(db)/8+1) // microseconds
	for id := 0; id < len(db); id += 8 {
		start := time.Now()
		if err := x.Delete(id); err != nil {
			return MutatePoint{}, fmt.Errorf("experiments: %s delete: %w", env.Spec.Name, err)
		}
		delLat = append(delLat, float64(time.Since(start).Microseconds()))
	}
	x.Quiesce()

	return MutatePoint{
		Dataset: env.Spec.Name, Graphs: len(db),
		Inserts: len(insLat), Deletes: len(delLat),
		InsertP50us:    percentile(insLat, 0.5),
		InsertP99us:    percentile(insLat, 0.99),
		DeleteP50us:    percentile(delLat, 0.5),
		DeleteP99us:    percentile(delLat, 0.99),
		QuiesceSeconds: quiesce,
		BatchRecall:    batch / n, IncrementalRecall: incr / n,
		FinalEpoch: x.Epoch(),
	}, nil
}

// tracePoint measures what always-on tracing costs: the dataset's bench
// workload at the given beam, answered untraced and then with a per-query
// trace recorded and handed to an exporter writing JSONL segments under
// Protocol.TraceDir/<dataset>. Sampling uses Protocol.TraceSample (0
// defaults to 1 inside the exporter — the worst case). Results and NDC
// must be bit-identical between the legs; the exported segments are
// replayed afterwards to count what reached disk.
func tracePoint(env *Env, beam int) (TracePoint, error) {
	p := env.Protocol
	so := core.SearchOptions{K: p.K, Beam: beam, Initial: core.LANIS, Routing: core.LANRoute}

	type outcome struct {
		res []pg.Result
		ndc int
	}
	// Warm up once (see benchPoint) so one-time setup skews neither leg.
	if len(env.Test) > 0 {
		search(env.Engine, nil, env.Test[0], so)
	}

	run := func(traced bool, exp *obs.Exporter) ([]outcome, []float64) {
		outs := make([]outcome, len(env.Test))
		lat := make([]float64, len(env.Test)) // microseconds
		for i, q := range env.Test {
			var t *obs.Trace
			if traced {
				t = obs.NewTrace(fmt.Sprintf("%s-%d", env.Spec.Name, i))
			}
			start := time.Now()
			res, stats := search(env.Engine, t, q, so)
			lat[i] = float64(time.Since(start).Microseconds())
			if exp != nil {
				exp.Submit(t)
			}
			outs[i] = outcome{res: res, ndc: stats.NDC}
		}
		return outs, lat
	}

	// Per-query distance work is deterministic, so the run-to-run spread at
	// second-scale latencies is scheduler and GC noise, not tracing cost.
	// Interleave off/on legs (drift hits both alike), alternate which leg
	// goes first each repetition, and force a collection before every leg
	// so sync.Pool eviction (internal/mat's scratch) cannot land on one side
	// systematically; each query keeps its minimum across repetitions —
	// the usual min-of-k estimator — so the paired comparison below
	// measures the overhead, not the noise floor.
	const traceReps = 3
	dir := filepath.Join(p.TraceDir, env.Spec.Name)
	exp, err := obs.NewExporter(obs.ExportConfig{Dir: dir, Sample: p.TraceSample})
	if err != nil {
		return TracePoint{}, err
	}
	offLat := make([]float64, len(env.Test))
	onLat := make([]float64, len(env.Test))
	for i := range offLat {
		offLat[i], onLat[i] = math.Inf(1), math.Inf(1)
	}
	minInto := func(dst, lat []float64) {
		for i := range dst {
			if lat[i] < dst[i] {
				dst[i] = lat[i]
			}
		}
	}
	var ref []outcome
	identical := true
	for rep := 0; rep < traceReps; rep++ {
		for _, traced := range [2]bool{rep%2 == 1, rep%2 == 0} {
			var e *obs.Exporter
			if traced && rep == 0 {
				e = exp // export once; later reps only measure
			}
			runtime.GC()
			out, lat := run(traced, e)
			if ref == nil {
				ref = out
			} else if !reflect.DeepEqual(out, ref) {
				identical = false
			}
			if traced {
				minInto(onLat, lat)
			} else {
				minInto(offLat, lat)
			}
		}
	}
	if err := exp.Close(); err != nil {
		return TracePoint{}, err
	}
	stats, err := obs.ReadSegments(dir, nil)
	if err != nil {
		return TracePoint{}, fmt.Errorf("experiments: %s trace replay: %w", env.Spec.Name, err)
	}

	tp := TracePoint{
		Dataset: env.Spec.Name, Queries: len(env.Test), Beam: beam,
		Sample:    p.TraceSample,
		OffP50us:  percentile(offLat, 0.5),
		OnP50us:   percentile(onLat, 0.5),
		Exported:  stats.Traces,
		Identical: identical,
	}
	// The regression estimate pairs each query with itself: the median
	// on/off ratio of per-query minima. Comparing independent p50s instead
	// would let the slowest queries' noise (seconds-scale GED work on a
	// shared box) dominate the delta; the paired median is robust to it.
	ratios := make([]float64, 0, len(offLat))
	for i := range offLat {
		if offLat[i] > 0 && !math.IsInf(offLat[i], 1) && !math.IsInf(onLat[i], 1) {
			ratios = append(ratios, onLat[i]/offLat[i])
		}
	}
	if len(ratios) > 0 {
		tp.P50RegressPct = 100 * (percentile(ratios, 0.5) - 1)
	}
	return tp, nil
}

// TraceSamples runs one traced query per dataset (the first test query,
// LAN_IS + LAN_Route at the widest beam) and writes each routing trace as
// one JSON line to w — lan-bench's -trace output. Environments come from
// the same cache the figures used, so no index is rebuilt.
func TraceSamples(p Protocol, cache *EnvCache, w io.Writer) error {
	for _, spec := range p.Specs() {
		env, err := cache.Get(p, spec)
		if err != nil {
			return err
		}
		if len(env.Test) == 0 || len(p.Beams) == 0 {
			continue
		}
		t := obs.NewTrace(spec.Name)
		search(env.Engine, t, env.Test[0], core.SearchOptions{K: p.K, Beam: p.Beams[len(p.Beams)-1], Initial: core.LANIS, Routing: core.LANRoute})
		data, err := t.JSON()
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", data); err != nil {
			return err
		}
	}
	return nil
}

// workers resolves the protocol's effective parallel worker count.
func (p Protocol) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.NumCPU()
}

// buildPoint constructs the dataset's proximity graph twice — once
// sequentially, once with the worker pool — and reports the speedup plus
// a bit-identity comparison of the two indexes.
func buildPoint(env *Env) BuildPoint {
	p := env.Protocol
	cfg := pg.BuildConfig{M: 6, Metric: p.buildMetric(), Seed: p.Seed}
	// Floor the parallel leg at two workers: on a single-core machine
	// the protocol default resolves to 1, which would compare the
	// sequential build against itself and verify nothing about the pool.
	workers := maxInt(p.workers(), 2)

	cfg.Workers = 1
	seqStart := time.Now()
	seq, seqErr := pg.Build(env.DB, cfg)
	seqSec := time.Since(seqStart).Seconds()

	cfg.Workers = workers
	parStart := time.Now()
	par, parErr := pg.Build(env.DB, cfg)
	parSec := time.Since(parStart).Seconds()

	bp := BuildPoint{
		Dataset: env.Spec.Name, Graphs: len(env.DB), Workers: workers,
		SequentialSeconds: seqSec, ParallelSeconds: parSec,
	}
	if parSec > 0 {
		bp.Speedup = seqSec / parSec
	}
	bp.Identical = seqErr == nil && parErr == nil &&
		reflect.DeepEqual(seq.PG.Adj, par.PG.Adj) &&
		reflect.DeepEqual(seq.Upper, par.Upper) &&
		reflect.DeepEqual(seq.Level, par.Level) &&
		seq.Entry == par.Entry
	return bp
}

func benchPoint(env *Env, beam int) BenchPoint {
	p := env.Protocol
	// Warm up before the timed loop: the first search pays one-time setup
	// (scratch-pool population, lazily built compressed GNN-graphs for the
	// query side) that would otherwise land in the first latency sample
	// and skew the percentiles of small workloads.
	so := core.SearchOptions{K: p.K, Beam: beam, Initial: core.LANIS, Routing: core.LANRoute}
	if len(env.Test) > 0 {
		search(env.Engine, nil, env.Test[0], so)
	}
	latencies := make([]float64, len(env.Test)) // microseconds
	ndcs := make([]float64, len(env.Test))
	var recall, total float64
	var initNDC, routeNDC, gammaSteps, pruneSum float64
	var pruned int
	for i, q := range env.Test {
		start := time.Now()
		res, stats := search(env.Engine, nil, q, so)
		elapsed := time.Since(start)
		latencies[i] = float64(elapsed.Microseconds())
		ndcs[i] = float64(stats.NDC)
		initNDC += float64(stats.InitNDC)
		routeNDC += float64(stats.RouteNDC)
		gammaSteps += float64(stats.GammaSteps)
		if stats.RankedNeighbors > 0 {
			pruneSum += stats.PruneRate()
			pruned++
		}
		recall += dataset.Recall(res, env.Truth[i].Results)
		total += elapsed.Seconds()
	}
	n := float64(len(env.Test))
	bp := BenchPoint{
		Dataset:        env.Spec.Name,
		Graphs:         len(env.DB),
		Queries:        len(env.Test),
		K:              p.K,
		Beam:           beam,
		BuildSeconds:   env.BuildTime.Seconds(),
		RecallAtK:      recall / n,
		NDCMean:        mean(ndcs),
		NDCMedian:      percentile(ndcs, 0.5),
		NDCInitialMean: initNDC / n,
		NDCRoutingMean: routeNDC / n,
		GammaStepsMean: gammaSteps / n,
		LatencyP50us:   percentile(latencies, 0.5),
		LatencyP90us:   percentile(latencies, 0.9),
		LatencyP99us:   percentile(latencies, 0.99),
		QPS:            n / total,
	}
	if pruned > 0 {
		bp.PruneRateMean = pruneSum / float64(pruned)
	}
	return bp
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// percentile returns the nearest-rank q-quantile (q in [0,1]) of xs,
// leaving the input unmodified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
