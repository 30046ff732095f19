// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. VII) on the synthetic dataset simulators: Table I and
// Figs. 5-12. Each experiment returns printable rows in the shape the
// paper reports (series of QPS-vs-recall points, precision bars, time
// breakdowns), so `lan-bench` and the repository benchmarks can emit them
// directly. Scales are configurable; defaults are sized to finish on a
// laptop while preserving the paper's comparisons.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/core"
	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/internal/l2route"
	"github.com/lansearch/lan/internal/models"
	"github.com/lansearch/lan/internal/pg"
)

// Protocol fixes the experimental configuration shared by all figures.
type Protocol struct {
	// BuildMetric is the offline GED used to construct the proximity
	// graph and the L2route siamese supervision. It must approximate the
	// query metric's geometry: a mismatched (looser) bound bends the PG's
	// edges away from the query metric's neighborhoods and costs recall.
	BuildMetric ged.Metric
	// Scale shrinks every dataset (the paper's sizes in Table I are the
	// 1.0 reference).
	Scale float64
	// Queries is the size of the query workload (the paper uses 4,000,
	// split 6:2:2; we scale it with the datasets).
	Queries int
	// K is the answer count (the paper reports k = 50).
	K int
	// Beams is the beam-size sweep that traces the recall axis.
	Beams []int
	// QueryMetric is the online GED; the paper's protocol is exact GED
	// within a budget, else best of VJ/Hungarian/Beam (ged.Ensemble).
	QueryMetric ged.Metric
	// TrainEpochs bounds offline model training.
	TrainEpochs int
	// Dim is the embedding dimension (the paper uses 128; scaled down
	// with the datasets).
	Dim int
	// Workers bounds index-build concurrency (0 means runtime.NumCPU).
	// The built index is bit-identical for every setting, so benchmark
	// numbers stay comparable across worker counts.
	Workers int
	// Seed drives everything.
	Seed int64
	// Datasets, when non-empty, restricts Specs() to the named datasets
	// (case-insensitive prefixes: "aids", "linux", "pubchem", "syn").
	Datasets []string
}

// DefaultProtocol returns a laptop-sized configuration.
func DefaultProtocol() Protocol {
	return Protocol{
		Scale:       0.008,
		Queries:     30,
		K:           10,
		Beams:       []int{12, 28},
		BuildMetric: ged.Ensemble{BeamWidth: 2},
		QueryMetric: ged.Ensemble{ExactBudget: 150, BeamWidth: 4},
		TrainEpochs: 5,
		Dim:         16,
		Seed:        1,
	}
}

// Specs returns the benchmark dataset simulators at the protocol's
// scale, filtered by p.Datasets when set. PUBCHEM and SYN use adjusted
// scales so all four land at a comparable graph count, as the per-dataset
// |D| in Table I differ.
func (p Protocol) Specs() []dataset.Spec {
	all := []dataset.Spec{
		dataset.AIDS(p.Scale),
		dataset.LINUX(p.Scale),
		dataset.PubChem(p.Scale * 42687 / 22794),
		dataset.SYN(p.Scale * 42687 / 1000000),
	}
	if len(p.Datasets) == 0 {
		return all
	}
	var out []dataset.Spec
	for _, spec := range all {
		for _, want := range p.Datasets {
			if len(want) > 0 && strings.HasPrefix(strings.ToLower(spec.Name), strings.ToLower(want)) {
				out = append(out, spec)
				break
			}
		}
	}
	return out
}

// Env is one dataset's fully prepared experimental environment.
type Env struct {
	Protocol Protocol
	Spec     dataset.Spec
	DB       graph.Database
	Engine   *core.Engine
	L2       *l2route.Index
	Train    []*graph.Graph
	Test     []*graph.Graph
	Truth    []dataset.GroundTruth
	// BuildTime is the wall time spent constructing and training the LAN
	// engine and the L2route baseline (ground-truth computation excluded).
	BuildTime time.Duration
}

// NewEnv generates the dataset, builds and trains the LAN engine and the
// L2route baseline, and computes the test ground truth.
func NewEnv(p Protocol, spec dataset.Spec) (*Env, error) {
	db := spec.Generate()
	queries := dataset.Workload(db, spec, p.Queries, p.Seed+7)
	train, _, test := dataset.Split(queries)

	buildStart := time.Now()
	eng, err := core.Build(db, train, core.Options{
		M: 6, Dim: p.Dim, GammaKNN: 2 * p.K, // N_Q covers the 2k-NNs (the paper uses 4k at full scale)
		BuildMetric: p.buildMetric(),
		QueryMetric: p.QueryMetric,
		Train:       models.TrainOptions{Epochs: p.TrainEpochs, LR: 0.01},
		Workers:     p.Workers,
		Seed:        p.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", spec.Name, err)
	}

	enc := l2route.NewEncoder(db, 2, p.Dim, p.Seed)
	pairs := l2route.SamplePairs(db, p.buildMetric(), 4*len(train), p.Seed+3)
	if err := enc.Train(pairs, p.TrainEpochs, 0.01); err != nil {
		return nil, err
	}
	l2 := l2route.BuildIndex(db, enc, 6)
	buildTime := time.Since(buildStart)

	env := &Env{Protocol: p, Spec: spec, DB: db, Engine: eng, L2: l2, Train: train, Test: test, BuildTime: buildTime}
	env.Truth = dataset.ComputeGroundTruth(db, test, p.QueryMetric, p.K)
	return env, nil
}

// Point is one (recall, QPS) measurement of a method at one beam setting.
type Point struct {
	Method string
	Beam   int
	Recall float64
	QPS    float64
	AvgNDC float64
	// AvgTime is the mean per-query wall time.
	AvgTime time.Duration
}

// measure runs every test query through search and aggregates a Point.
func (e *Env) measure(method string, beam int, search func(q *graph.Graph) ([]pg.Result, core.QueryStats)) Point {
	var recall, ndc float64
	start := time.Now()
	for i, q := range e.Test {
		res, stats := search(q)
		recall += dataset.Recall(res, e.Truth[i].Results)
		ndc += float64(stats.NDC)
	}
	elapsed := time.Since(start)
	n := float64(len(e.Test))
	return Point{
		Method: method, Beam: beam,
		Recall:  recall / n,
		QPS:     n / elapsed.Seconds(),
		AvgNDC:  ndc / n,
		AvgTime: elapsed / time.Duration(len(e.Test)),
	}
}

// search answers one harness query on eng. Experiment queries run to
// completion, so there is no caller context to forward, and cancellation
// is the only error Engine.Search returns — hence none here.
func search(eng *core.Engine, q *graph.Graph, so core.SearchOptions) ([]pg.Result, core.QueryStats) {
	res, stats, _ := eng.Search(context.Background(), q, so)
	return res, stats
}

// searchWith adapts an Engine strategy pair into a measure callback.
func (e *Env) searchWith(is core.InitialStrategy, rt core.RoutingStrategy, beam int) func(q *graph.Graph) ([]pg.Result, core.QueryStats) {
	return func(q *graph.Graph) ([]pg.Result, core.QueryStats) {
		return search(e.Engine, q, core.SearchOptions{K: e.Protocol.K, Beam: beam, Initial: is, Routing: rt})
	}
}

// WritePoints prints a series of points as aligned rows.
func WritePoints(w io.Writer, title string, pts []Point) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  %-14s %6s %8s %10s %10s %12s\n", "method", "beam", "recall", "QPS", "avgNDC", "avgTime")
	for _, p := range pts {
		fmt.Fprintf(w, "  %-14s %6d %8.3f %10.2f %10.1f %12s\n",
			p.Method, p.Beam, p.Recall, p.QPS, p.AvgNDC, p.AvgTime.Round(time.Microsecond))
	}
}

// buildMetric returns the configured build metric, defaulting to the
// query metric's cheap cousin.
func (p Protocol) buildMetric() ged.Metric {
	if p.BuildMetric != nil {
		return p.BuildMetric
	}
	return ged.Ensemble{BeamWidth: 2}
}
