package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/autograd"
	"github.com/lansearch/lan/internal/cg"
	"github.com/lansearch/lan/internal/core"
	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/internal/models"
	"github.com/lansearch/lan/internal/nn"
	"github.com/lansearch/lan/internal/pg"
)

// Table1 reproduces Table I: the statistics of the (scaled) datasets.
func Table1(w io.Writer, p Protocol) {
	fmt.Fprintf(w, "Table I: dataset statistics (scale %g)\n", p.Scale)
	fmt.Fprintf(w, "  %-12s %8s %8s %8s %8s\n", "dataset", "#graphs", "avg|V|", "avg|E|", "#nlabel")
	for _, spec := range p.Specs() {
		db := spec.Generate()
		st := db.Stats()
		fmt.Fprintf(w, "  %-12s %8d %8.1f %8.1f %8d\n", spec.Name, st.Graphs, st.AvgNodes, st.AvgEdges, st.NumLabels)
	}
}

// Fig5 compares LAN, HNSW and L2route end to end: QPS vs recall@k per
// dataset (the paper's headline figure).
func Fig5(e *Env) []Point {
	var pts []Point
	for _, beam := range e.Protocol.Beams {
		pts = append(pts, e.measure("LAN", beam, e.searchWith(core.LANIS, core.LANRoute, beam)))
	}
	for _, beam := range e.Protocol.Beams {
		pts = append(pts, e.measure("HNSW", beam, e.searchWith(core.HNSWIS, core.BaselineRoute, beam)))
	}
	for _, beam := range e.Protocol.Beams {
		verify := beam * 3 // L2route needs over-verification to compete on recall
		pts = append(pts, e.measure("L2route", beam, func(q *graph.Graph) ([]pg.Result, core.QueryStats) {
			start := time.Now()
			cache := pg.NewDistCache(e.Protocol.QueryMetric, e.DB, q)
			// As in search: no caller context, and cancellation is the
			// only error.
			res, s, _ := e.L2.Search(context.Background(), q, cache, e.Protocol.K, verify, verify)
			return res, core.QueryStats{NDC: s.NDC, Explored: s.Explored, Total: time.Since(start)}
		}))
	}
	return pts
}

// Fig6 isolates routing: LAN_Route vs HNSW_Route, both from the HNSW
// initial node.
func Fig6(e *Env) []Point {
	var pts []Point
	for _, beam := range e.Protocol.Beams {
		pts = append(pts, e.measure("LAN_Route", beam, e.searchWith(core.HNSWIS, core.LANRoute, beam)))
	}
	for _, beam := range e.Protocol.Beams {
		pts = append(pts, e.measure("HNSW_Route", beam, e.searchWith(core.HNSWIS, core.BaselineRoute, beam)))
	}
	for _, beam := range e.Protocol.Beams {
		pts = append(pts, e.measure("Oracle_Route", beam, e.searchWith(core.HNSWIS, core.OracleRoute, beam)))
	}
	return pts
}

// Fig7 isolates initial selection: LAN_IS vs HNSW_IS vs Rand_IS, all with
// LAN_Route.
func Fig7(e *Env) []Point {
	var pts []Point
	for _, beam := range e.Protocol.Beams {
		pts = append(pts, e.measure("LAN_IS", beam, e.searchWith(core.LANIS, core.LANRoute, beam)))
	}
	for _, beam := range e.Protocol.Beams {
		pts = append(pts, e.measure("HNSW_IS", beam, e.searchWith(core.HNSWIS, core.LANRoute, beam)))
	}
	for _, beam := range e.Protocol.Beams {
		pts = append(pts, e.measure("Rand_IS", beam, e.searchWith(core.RandIS, core.LANRoute, beam)))
	}
	return pts
}

// Fig8Row is one dataset's M_nh prediction quality.
type Fig8Row struct {
	Dataset      string
	Precision    float64
	AvgPredicted float64
}

// Fig8 evaluates the initial-node prediction precision on the held-out
// test queries (the paper reports > 0.7 on all datasets).
func Fig8(e *Env) Fig8Row {
	table := models.ComputeDistanceTable(e.DB, e.Test, e.Engine.Opts.QueryMetric, e.Engine.Opts.Workers)
	prec, avg := e.Engine.Mnh.Precision(e.DB, table, e.Engine.GammaStar)
	return Fig8Row{Dataset: e.Spec.Name, Precision: prec, AvgPredicted: avg}
}

// Fig9Row is one scalability measurement: SYN at a fraction of its full
// (scaled) size.
type Fig9Row struct {
	Fraction float64
	Graphs   int
	// AvgTime per query at the protocol's largest beam (high recall) and
	// smallest beam (low recall), matching the paper's recall-level
	// curves.
	AvgTimeLow  time.Duration
	AvgTimeHigh time.Duration
	RecallLow   float64
	RecallHigh  float64
}

// Fig9 runs the scalability sweep on SYN: one index is built over each of
// 20%..100% of the protocol's SYN size and searched whole. The paper
// instead searches equal shards one after another (Sec. VII-D), which
// examples/scalability does.
func Fig9(p Protocol) ([]Fig9Row, error) {
	fractions := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	full := dataset.SYN(p.Scale * 42687 / 1000000)
	var rows []Fig9Row
	for _, f := range fractions {
		spec := full.Scaled(f)
		env, err := NewEnv(p, spec)
		if err != nil {
			return nil, err
		}
		lo := env.measure("LAN", p.Beams[0], env.searchWith(core.LANIS, core.LANRoute, p.Beams[0]))
		hiBeam := p.Beams[len(p.Beams)-1]
		hi := env.measure("LAN", hiBeam, env.searchWith(core.LANIS, core.LANRoute, hiBeam))
		rows = append(rows, Fig9Row{
			Fraction: f, Graphs: len(env.DB),
			AvgTimeLow: lo.AvgTime, AvgTimeHigh: hi.AvgTime,
			RecallLow: lo.Recall, RecallHigh: hi.Recall,
		})
	}
	return rows, nil
}

// Fig10 measures the end-to-end effect of the CG acceleration: the same
// engine configuration built with and without compressed GNN-graphs
// (Theorem 2 guarantees identical results, so only QPS moves).
func Fig10(env *Env) ([]Point, error) {
	p := env.Protocol
	spec := env.Spec
	db := env.DB
	queries := dataset.Workload(db, spec, p.Queries, p.Seed+7)
	train, _, _ := dataset.Split(queries)
	rawEng, err := core.Build(db, train, core.Options{
		M: 6, Dim: p.Dim, GammaKNN: 2 * p.K,
		BuildMetric: p.buildMetric(),
		QueryMetric: p.QueryMetric,
		UseCG:       false,
		Train:       models.TrainOptions{Epochs: p.TrainEpochs, LR: 0.01},
		Seed:        p.Seed,
	})
	if err != nil {
		return nil, err
	}
	var pts []Point
	for _, beam := range p.Beams {
		pts = append(pts, env.measure("LAN+CG", beam, env.searchWith(core.LANIS, core.LANRoute, beam)))
	}
	for _, beam := range p.Beams {
		beam := beam
		pts = append(pts, env.measure("LAN-noCG", beam, func(q *graph.Graph) ([]pg.Result, core.QueryStats) {
			return search(rawEng, q, core.SearchOptions{K: p.K, Beam: beam, Initial: core.LANIS, Routing: core.LANRoute})
		}))
	}
	return pts, nil
}

// Fig11Row is one dataset's query-time breakdown before CG acceleration.
type Fig11Row struct {
	Dataset string
	// CrossGraphShare is the fraction of query time inside cross-graph
	// learning (the paper reports 20-29%).
	CrossGraphShare float64
	DistShare       float64
}

// Fig11 measures the breakdown on an engine built WITHOUT the CG
// acceleration (matching the paper's "before acceleration" accounting).
func Fig11(p Protocol, spec dataset.Spec) (Fig11Row, error) {
	db := spec.Generate()
	queries := dataset.Workload(db, spec, p.Queries, p.Seed+7)
	train, _, test := dataset.Split(queries)
	eng, err := core.Build(db, train, core.Options{
		M: 6, Dim: p.Dim, GammaKNN: 2 * p.K,
		BuildMetric: p.buildMetric(),
		QueryMetric: p.QueryMetric,
		UseCG:       false,
		Train:       models.TrainOptions{Epochs: p.TrainEpochs, LR: 0.01},
		Seed:        p.Seed,
	})
	if err != nil {
		return Fig11Row{}, err
	}
	var model, dist, total time.Duration
	beam := p.Beams[len(p.Beams)/2]
	for _, q := range test {
		_, s := search(eng, q, core.SearchOptions{K: p.K, Beam: beam, Initial: core.LANIS, Routing: core.LANRoute})
		model += s.ModelTime
		dist += s.DistTime
		total += s.Total
	}
	return Fig11Row{
		Dataset:         spec.Name,
		CrossGraphShare: model.Seconds() / total.Seconds(),
		DistShare:       dist.Seconds() / total.Seconds(),
	}, nil
}

// Fig12Row reports the cross-graph learning speedup of CG and HAG over
// the raw computation for one dataset.
type Fig12Row struct {
	Dataset    string
	RawPerPair time.Duration
	CGPerPair  time.Duration
	HAGPerPair time.Duration
	CGSpeedup  float64
	HAGSpeedup float64
	// Cost ratios in Theorem 3 units.
	RawCost, CGCost, HAGAggEdges int
}

// Fig12 microbenchmarks one cross-graph forward pass per representation
// over sampled pairs.
func Fig12(p Protocol, spec dataset.Spec, pairs int) Fig12Row {
	db := spec.Generate()
	vocab := cg.NewVocab(db)
	params := nn.NewParams()
	rng := newSeededRand(p.Seed)
	model := cg.NewCrossModel(params, "f12", cg.Config{Layers: 2, Dim: p.Dim, Vocab: vocab}, rng)

	type trio struct {
		rawG, rawQ *cg.Compressed
		cgG, cgQ   *cg.Compressed
		hagG, hagQ *cg.HAG
	}
	trios := make([]trio, pairs)
	var rawCost, cgCost, hagEdges int
	for i := range trios {
		g := db[(2*i)%len(db)]
		q := db[(2*i+1)%len(db)]
		rawG, rawQ := cg.BuildRaw(g, 2, vocab), cg.BuildRaw(q, 2, vocab)
		cgG, cgQ := cg.Build(g, 2, vocab), cg.Build(q, 2, vocab)
		trios[i] = trio{rawG, rawQ, cgG, cgQ, cg.BuildHAG(rawG, 16), cg.BuildHAG(rawQ, 16)}
		rawCost += cg.CrossCost(rawG, rawQ).Total()
		cgCost += cg.CrossCost(cgG, cgQ).Total()
		hagEdges += trios[i].hagG.AggEdges() + trios[i].hagQ.AggEdges()
	}

	// Warm up caches once, then take the best of three passes to damp GC
	// and scheduler noise.
	timeIt := func(f func(t trio)) time.Duration {
		for _, t := range trios {
			f(t)
		}
		best := time.Duration(0)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			for _, t := range trios {
				f(t)
			}
			if d := time.Since(start); rep == 0 || d < best {
				best = d
			}
		}
		return best / time.Duration(pairs)
	}
	tape := autograd.NewTape()
	raw := timeIt(func(t trio) { tape.Reset(); model.Forward(tape, t.rawG, t.rawQ) })
	comp := timeIt(func(t trio) { tape.Reset(); model.Forward(tape, t.cgG, t.cgQ) })
	hag := timeIt(func(t trio) { tape.Reset(); cg.ForwardCross(tape, model, t.hagG, t.hagQ) })

	return Fig12Row{
		Dataset:    spec.Name,
		RawPerPair: raw, CGPerPair: comp, HAGPerPair: hag,
		CGSpeedup:  raw.Seconds() / comp.Seconds(),
		HAGSpeedup: raw.Seconds() / hag.Seconds(),
		RawCost:    rawCost, CGCost: cgCost, HAGAggEdges: hagEdges,
	}
}
