package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"github.com/lansearch/lan/graph"
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
			res, explored, _ := e.L2.Search(context.Background(), q, cache, e.Protocol.K, verify, verify)
			return res, core.QueryStats{NDC: cache.NDC(), Explored: explored, Total: time.Since(start)}
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
	rawEng, err := p.buildEngine(db, train, true)
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
	eng, err := p.buildEngine(db, train, true)
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

// Fig12Row reports the cross-graph learning speedup of CG over the raw
// computation for one dataset, timed on the inference kernel that queries
// run, beside the Theorem-3 costs of raw, CG and HAG. HAG is counted, not
// timed: its plan only trims aggregation additions, which is all its
// cost column credits it with.
type Fig12Row struct {
	Dataset string
	// RawPerPair and CGPerPair are the median over alternating rounds of
	// one Bind and Cross per pair; CGSpeedup is the median over rounds of
	// the raw/CG time ratio.
	RawPerPair time.Duration
	CGPerPair  time.Duration
	CGSpeedup  float64
	// Costs in Theorem 3 units, summed over the pairs: HAGCost is the raw
	// cost minus the aggregation additions its plan saves.
	RawCost, CGCost, HAGCost int
}

// CGCostRatio is raw cost over CG cost.
func (r Fig12Row) CGCostRatio() float64 { return float64(r.RawCost) / float64(r.CGCost) }

// HAGCostRatio is raw cost over HAG cost.
func (r Fig12Row) HAGCostRatio() float64 { return float64(r.RawCost) / float64(r.HAGCost) }

// fig12Rounds and fig12Passes shape Fig. 12's timing: rounds alternate
// raw and CG (who goes first alternates too), each round times passes
// sweeps over the pairs per variant, and the medians are over rounds.
const (
	fig12Rounds = 201
	fig12Passes = 4
)

// Fig12 times one cross-graph forward per pair, raw against compressed,
// on the inference kernel (Workspace.Bind plus Cross) over sampled pairs,
// and counts the Theorem-3 cost of raw, CG and HAG.
func Fig12(p Protocol, spec dataset.Spec, pairs int) Fig12Row {
	db := spec.Generate()
	vocab := cg.NewVocab(db)
	model := cg.NewCrossModel(nn.NewParams(), "f12", cg.Config{Layers: 2, Dim: p.Dim, Vocab: vocab}, newSeededRand(p.Seed))

	raw := make([][2]*cg.Compressed, pairs)
	comp := make([][2]*cg.Compressed, pairs)
	row := Fig12Row{Dataset: spec.Name}
	for i := range raw {
		g := db[(2*i)%len(db)]
		q := db[(2*i+1)%len(db)]
		raw[i] = [2]*cg.Compressed{cg.BuildRaw(g, 2, vocab), cg.BuildRaw(q, 2, vocab)}
		comp[i] = [2]*cg.Compressed{cg.Build(g, 2, vocab), cg.Build(q, 2, vocab)}
		rc := cg.CrossCost(raw[i][0], raw[i][1])
		row.RawCost += rc.Total()
		row.CGCost += cg.CrossCost(comp[i][0], comp[i][1]).Total()
		saved := rc.AggEdges - cg.BuildHAG(raw[i][0], 16).AggEdges() - cg.BuildHAG(raw[i][1], 16).AggEdges()
		row.HAGCost += rc.Total() - saved
	}

	ws := cg.NewWorkspace()
	out := make([]float64, model.Cfg.CrossDim())
	sweep := func(ps [][2]*cg.Compressed) float64 {
		start := time.Now()
		for rep := 0; rep < fig12Passes; rep++ {
			for _, pr := range ps {
				ws.Bind(model, pr[1])
				ws.Cross(out, pr[0])
			}
		}
		return time.Since(start).Seconds()
	}
	sweep(raw) // warm the workspace and the caches
	sweep(comp)
	rawT, cgT, ratio := make([]float64, fig12Rounds), make([]float64, fig12Rounds), make([]float64, fig12Rounds)
	for r := range ratio {
		if r%2 == 0 {
			rawT[r] = sweep(raw)
			cgT[r] = sweep(comp)
		} else {
			cgT[r] = sweep(comp)
			rawT[r] = sweep(raw)
		}
		ratio[r] = rawT[r] / cgT[r]
	}
	perPair := func(ts []float64) time.Duration {
		return time.Duration(median(ts) / float64(fig12Passes*pairs) * float64(time.Second))
	}
	row.RawPerPair, row.CGPerPair, row.CGSpeedup = perPair(rawT), perPair(cgT), median(ratio)
	return row
}

// median returns the middle value of xs (the mean of the two middle ones
// for an even count), sorting xs.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
