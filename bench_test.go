package lan

// Benchmarks mirroring the paper's evaluation (one per table/figure; see
// DESIGN.md's per-experiment index). Each benchmark measures the per-query
// (or per-pair) work of one method and reports recall/NDC as custom
// metrics, so `go test -bench=.` traces the same comparisons the figures
// plot. The expensive environments (index construction + model training)
// are built once and shared.

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/cg"
	"github.com/lansearch/lan/internal/core"
	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/internal/experiments"
	"github.com/lansearch/lan/internal/models"
	"github.com/lansearch/lan/internal/nn"
	"github.com/lansearch/lan/internal/pg"
	"github.com/lansearch/lan/internal/route"
)

// benchProtocol is sized so the full -bench=. run finishes in minutes.
func benchProtocol() experiments.Protocol {
	return experiments.Protocol{
		Scale:       0.004,
		Queries:     20,
		K:           5,
		Beams:       []int{8, 16},
		BuildMetric: ged.Ensemble{BeamWidth: 2},
		QueryMetric: ged.Ensemble{ExactBudget: 50, BeamWidth: 2},
		TrainEpochs: 3,
		Dim:         16,
		Seed:        1,
	}
}

var benchEnvs struct {
	mu   sync.Mutex
	envs map[string]*experiments.Env
}

func benchEnv(b *testing.B, spec dataset.Spec) *experiments.Env {
	b.Helper()
	benchEnvs.mu.Lock()
	defer benchEnvs.mu.Unlock()
	if benchEnvs.envs == nil {
		benchEnvs.envs = make(map[string]*experiments.Env)
	}
	if env, ok := benchEnvs.envs[spec.Name]; ok {
		return env
	}
	env, err := experiments.NewEnv(benchProtocol(), spec)
	if err != nil {
		b.Fatalf("NewEnv: %v", err)
	}
	benchEnvs.envs[spec.Name] = env
	return env
}

func benchAIDS(b *testing.B) *experiments.Env {
	return benchEnv(b, dataset.AIDS(benchProtocol().Scale))
}

// benchSearch measures one strategy pair per iteration, reporting recall
// and NDC.
func benchSearch(b *testing.B, env *experiments.Env, is core.InitialStrategy, rt core.RoutingStrategy) {
	b.Helper()
	p := env.Protocol
	var recall, ndc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := i % len(env.Test)
		res, stats, _ := env.Engine.Search(context.Background(), env.Test[qi], core.SearchOptions{
			K: p.K, Beam: p.Beams[len(p.Beams)-1], Initial: is, Routing: rt,
		})
		recall += dataset.Recall(res, env.Truth[qi].Results)
		ndc += float64(stats.NDC)
	}
	b.ReportMetric(recall/float64(b.N), "recall@k")
	b.ReportMetric(ndc/float64(b.N), "NDC/query")
}

// BenchmarkTable1Stats regenerates Table I's statistics.
func BenchmarkTable1Stats(b *testing.B) {
	spec := dataset.AIDS(0.002)
	for i := 0; i < b.N; i++ {
		db := spec.Generate()
		st := db.Stats()
		if st.Graphs == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// Fig 5: end-to-end methods.

func BenchmarkFig5LAN(b *testing.B) {
	benchSearch(b, benchAIDS(b), core.LANIS, core.LANRoute)
}

func BenchmarkFig5HNSW(b *testing.B) {
	benchSearch(b, benchAIDS(b), core.HNSWIS, core.BaselineRoute)
}

func BenchmarkFig5L2route(b *testing.B) {
	env := benchAIDS(b)
	p := env.Protocol
	var recall, ndc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := i % len(env.Test)
		cache := pg.NewDistCache(p.QueryMetric, env.DB, env.Test[qi])
		res, stats, _ := env.L2.Search(context.Background(), env.Test[qi], cache, p.K, 3*p.Beams[len(p.Beams)-1], 3*p.Beams[len(p.Beams)-1])
		recall += dataset.Recall(res, env.Truth[qi].Results)
		ndc += float64(stats.NDC)
	}
	b.ReportMetric(recall/float64(b.N), "recall@k")
	b.ReportMetric(ndc/float64(b.N), "NDC/query")
}

// Fig 6: routing isolated (HNSW_IS fixed).

func BenchmarkFig6LANRoute(b *testing.B) {
	benchSearch(b, benchAIDS(b), core.HNSWIS, core.LANRoute)
}

func BenchmarkFig6HNSWRoute(b *testing.B) {
	benchSearch(b, benchAIDS(b), core.HNSWIS, core.BaselineRoute)
}

func BenchmarkFig6OracleRoute(b *testing.B) {
	benchSearch(b, benchAIDS(b), core.HNSWIS, core.OracleRoute)
}

// Fig 7: initial selection isolated (LAN_Route fixed).

func BenchmarkFig7LANIS(b *testing.B) {
	benchSearch(b, benchAIDS(b), core.LANIS, core.LANRoute)
}

func BenchmarkFig7HNSWIS(b *testing.B) {
	benchSearch(b, benchAIDS(b), core.HNSWIS, core.LANRoute)
}

func BenchmarkFig7RandIS(b *testing.B) {
	benchSearch(b, benchAIDS(b), core.RandIS, core.LANRoute)
}

// Fig 8: one M_nh membership prediction.
func BenchmarkFig8MnhPredict(b *testing.B) {
	env := benchAIDS(b)
	q := env.Test[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Engine.Mnh.Predict(env.DB[i%len(env.DB)], q)
	}
}

// Fig 9: one LAN query on the SYN simulator (scalability substrate).
func BenchmarkFig9SYNQuery(b *testing.B) {
	env := benchEnv(b, dataset.SYN(benchProtocol().Scale*42687/1000000))
	benchSearch(b, env, core.LANIS, core.LANRoute)
}

// Fig 10: queries with vs without the CG acceleration.

func BenchmarkFig10WithCG(b *testing.B) {
	benchSearch(b, benchAIDS(b), core.LANIS, core.LANRoute)
}

var fig10RawEngine struct {
	once sync.Once
	eng  *core.Engine
	err  error
}

// rawEngine lazily builds the raw-GNN (no CG) twin of the shared environment.
func rawEngine(b *testing.B, env *experiments.Env) *core.Engine {
	b.Helper()
	p := env.Protocol
	fig10RawEngine.once.Do(func() {
		queries := dataset.Workload(env.DB, env.Spec, p.Queries, p.Seed+7)
		train, _, _ := dataset.Split(queries)
		fig10RawEngine.eng, fig10RawEngine.err = core.Build(env.DB, train, core.Options{
			M: 6, Dim: p.Dim, GammaKNN: 2 * p.K,
			BuildMetric: p.BuildMetric,
			QueryMetric: p.QueryMetric, RawGNN: true,
			Train: models.TrainOptions{Epochs: p.TrainEpochs, LR: 0.01},
			Seed:  p.Seed,
		})
	})
	if fig10RawEngine.err != nil {
		b.Fatal(fig10RawEngine.err)
	}
	return fig10RawEngine.eng
}

func BenchmarkFig10WithoutCG(b *testing.B) {
	env := benchAIDS(b)
	p := env.Protocol
	eng := rawEngine(b, env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := i % len(env.Test)
		eng.Search(context.Background(), env.Test[qi], core.SearchOptions{
			K: p.K, Beam: p.Beams[len(p.Beams)-1], Initial: core.LANIS, Routing: core.LANRoute,
		})
	}
}

// Fig 11: full LAN query with breakdown metrics, measured on the engine
// without CG acceleration (the paper's "before acceleration" accounting).
func BenchmarkFig11Breakdown(b *testing.B) {
	env := benchAIDS(b)
	p := env.Protocol
	eng := rawEngine(b, env)
	var model, total float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := i % len(env.Test)
		_, stats, _ := eng.Search(context.Background(), env.Test[qi], core.SearchOptions{
			K: p.K, Beam: p.Beams[len(p.Beams)-1], Initial: core.LANIS, Routing: core.LANRoute,
		})
		model += stats.ModelTime.Seconds()
		total += stats.Total.Seconds()
	}
	if total > 0 {
		b.ReportMetric(100*model/total, "model-%")
	}
}

// Fig 12: one cross-graph forward per representation, on the inference
// kernel (Workspace.Bind plus Cross per pair). HAG has no forward of its
// own: Fig. 12 counts its cost, it does not time it.

func fig12Fixtures(b *testing.B) (*cg.CrossModel, []*graph.Graph, *cg.Vocab) {
	b.Helper()
	db := dataset.AIDS(0.002).Generate()
	vocab := cg.NewVocab(db)
	params := nn.NewParams()
	model := cg.NewCrossModel(params, "b12", cg.Config{Layers: 2, Dim: 16, Vocab: vocab}, rand.New(rand.NewSource(1)))
	return model, db[:16], vocab
}

func benchmarkFig12(b *testing.B, build func(*graph.Graph, int, *cg.Vocab) *cg.Compressed) {
	model, gs, vocab := fig12Fixtures(b)
	var pairs [][2]*cg.Compressed
	for i := 0; i+1 < len(gs); i += 2 {
		pairs = append(pairs, [2]*cg.Compressed{build(gs[i], 2, vocab), build(gs[i+1], 2, vocab)})
	}
	ws := cg.NewWorkspace()
	out := make([]float64, model.Cfg.CrossDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		ws.Bind(model, p[1])
		ws.Cross(out, p[0])
	}
}

func BenchmarkFig12RawCrossLearning(b *testing.B) { benchmarkFig12(b, cg.BuildRaw) }

func BenchmarkFig12CGCrossLearning(b *testing.B) { benchmarkFig12(b, cg.Build) }

// Substrate microbenchmarks (ablations called out in DESIGN.md).

func BenchmarkGEDHungarian(b *testing.B) {
	db := dataset.AIDS(0.002).Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ged.Hungarian(db[i%len(db)], db[(i+7)%len(db)])
	}
}

func BenchmarkGEDVJ(b *testing.B) {
	db := dataset.AIDS(0.002).Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ged.VJ(db[i%len(db)], db[(i+7)%len(db)])
	}
}

func BenchmarkGEDBeam(b *testing.B) {
	db := dataset.AIDS(0.002).Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ged.Beam(db[i%len(db)], db[(i+7)%len(db)], 8)
	}
}

func BenchmarkGEDEnsembleProtocol(b *testing.B) {
	db := dataset.AIDS(0.002).Generate()
	e := ged.Ensemble{ExactBudget: 400, BeamWidth: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Distance(db[i%len(db)], db[(i+7)%len(db)])
	}
}

func BenchmarkCGBuild(b *testing.B) {
	db := dataset.AIDS(0.002).Generate()
	vocab := cg.NewVocab(db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cg.Build(db[i%len(db)], 2, vocab)
	}
}

// Ablations called out in DESIGN.md.

// BenchmarkAblationISBasic measures Sec. V-B1's exhaustive design against
// BenchmarkFig7LANIS (the optimized V-B2 design).
func BenchmarkAblationISBasic(b *testing.B) {
	benchSearch(b, benchAIDS(b), core.LANISBasic, core.LANRoute)
}

// benchOracleY runs oracle np_route at a given batch percent y, reporting
// NDC (smaller batches prune more precisely but rank more often).
func benchOracleY(b *testing.B, y int) {
	env := benchAIDS(b)
	p := env.Protocol
	var ndc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := i % len(env.Test)
		q := env.Test[qi]
		cache := pg.NewDistCache(p.QueryMetric, env.DB, q)
		entry := env.Engine.Index.EntryPoint(context.Background(), cache)
		oracle := &route.OracleRanker{Cache: cache, BatchPercent: y, RankMetric: ged.MetricFunc(ged.Hungarian)}
		_, stats, _ := route.Route(context.Background(), env.Engine.Index.PG, cache, oracle, entry, route.Config{K: p.K, Beam: p.Beams[len(p.Beams)-1]})
		ndc += float64(stats.NDC)
	}
	b.ReportMetric(ndc/float64(b.N), "NDC/query")
}

func BenchmarkAblationBatchY10(b *testing.B) { benchOracleY(b, 10) }
func BenchmarkAblationBatchY20(b *testing.B) { benchOracleY(b, 20) }
func BenchmarkAblationBatchY50(b *testing.B) { benchOracleY(b, 50) }

// benchStepSize runs oracle np_route at a given threshold increment d_s.
func benchStepSize(b *testing.B, ds float64) {
	env := benchAIDS(b)
	p := env.Protocol
	var ndc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := i % len(env.Test)
		q := env.Test[qi]
		cache := pg.NewDistCache(p.QueryMetric, env.DB, q)
		entry := env.Engine.Index.EntryPoint(context.Background(), cache)
		oracle := &route.OracleRanker{Cache: cache, BatchPercent: 20, RankMetric: ged.MetricFunc(ged.Hungarian)}
		_, stats, _ := route.Route(context.Background(), env.Engine.Index.PG, cache, oracle, entry, route.Config{K: p.K, Beam: p.Beams[len(p.Beams)-1], StepSize: ds})
		ndc += float64(stats.NDC)
	}
	b.ReportMetric(ndc/float64(b.N), "NDC/query")
}

func BenchmarkAblationStepDs1(b *testing.B) { benchStepSize(b, 1) }
func BenchmarkAblationStepDs2(b *testing.B) { benchStepSize(b, 2) }
func BenchmarkAblationStepDs5(b *testing.B) { benchStepSize(b, 5) }
