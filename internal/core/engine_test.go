package core

import (
	"context"
	"sync"
	"testing"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/internal/models"
)

var engineFixture struct {
	once sync.Once
	eng  *Engine
	spec dataset.Spec
	db   graph.Database
	test []*graph.Graph
	err  error
}

// buildEngine makes a small trained engine, shared across tests (the
// engine is read-only at query time).
func buildEngine(t *testing.T) (*Engine, dataset.Spec, graph.Database, []*graph.Graph) {
	t.Helper()
	f := &engineFixture
	f.once.Do(func() {
		// In -short mode a smaller database and fewer training epochs keep
		// the shared build under a couple of seconds; tests that assert
		// search quality (recall, IS comparisons) skip themselves instead,
		// since those bounds only hold at the full fixture scale.
		scale, nq, epochs := 0.004, 40, 8
		if testing.Short() {
			scale, nq, epochs = 0.001, 12, 2
		}
		f.spec = dataset.AIDS(scale)
		f.db = f.spec.Generate()
		queries := dataset.Workload(f.db, f.spec, nq, 5)
		train, _, test := dataset.Split(queries)
		f.test = test
		f.eng, f.err = Build(f.db, train, Options{
			M: 5, Dim: 8, GammaKNN: 5,
			Train: models.TrainOptions{Epochs: epochs, LR: 0.01},
			Seed:  1,
		})
	})
	if f.err != nil {
		t.Fatalf("Build: %v", f.err)
	}
	return f.eng, f.spec, f.db, f.test
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, nil, Options{}); err == nil {
		t.Fatal("no error for empty database")
	}
	db := dataset.AIDS(0.0005).Generate()
	if _, err := Build(db, nil, Options{}); err == nil {
		t.Fatal("no error for empty training set")
	}
}

func TestSearchAllStrategiesReturnResults(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode: routes every strategy over the full engine (~30s)")
	}
	eng, _, db, test := buildEngine(t)
	q := test[0]
	for _, is := range []InitialStrategy{LANIS, HNSWIS, RandIS} {
		for _, rt := range []RoutingStrategy{LANRoute, BaselineRoute, OracleRoute} {
			res, stats, _ := eng.Search(context.Background(), q, SearchOptions{K: 5, Beam: 12, Initial: is, Routing: rt})
			if len(res) != 5 {
				t.Fatalf("is=%d rt=%d: %d results", is, rt, len(res))
			}
			if stats.NDC <= 0 || stats.Total <= 0 {
				t.Fatalf("is=%d rt=%d: stats %+v", is, rt, stats)
			}
			for i, r := range res {
				if r.ID < 0 || r.ID >= len(db) {
					t.Fatalf("result id out of range: %v", r)
				}
				if i > 0 && res[i-1].Dist > r.Dist {
					t.Fatalf("results unsorted: %v", res)
				}
			}
		}
	}
}

func TestSearchRecallAgainstBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode: computes brute-force ground truth (~28s)")
	}
	eng, _, db, test := buildEngine(t)
	var recall float64
	for _, q := range test {
		truth := dataset.BruteForceKNN(db, q, eng.Opts.QueryMetric, 5)
		res, _, _ := eng.Search(context.Background(), q, SearchOptions{K: 5, Beam: 20})
		recall += dataset.Recall(res, truth)
	}
	recall /= float64(len(test))
	if recall < 0.7 {
		t.Fatalf("recall@5 = %.3f < 0.7", recall)
	}
	t.Logf("LAN recall@5 = %.3f over %d queries", recall, len(test))
}

func TestRoutingNDCOrdering(t *testing.T) {
	// At unit-test scale the oracle pruning must strictly beat the
	// baseline; the learned ranker must stay in the same ballpark (its
	// full margin needs the benchmark-scale neighborhoods, cf. Fig. 6).
	eng, _, _, test := buildEngine(t)
	var lanNDC, oracleNDC, baseNDC int
	for _, q := range test {
		_, s1, _ := eng.Search(context.Background(), q, SearchOptions{K: 5, Beam: 16, Initial: HNSWIS, Routing: LANRoute})
		_, s2, _ := eng.Search(context.Background(), q, SearchOptions{K: 5, Beam: 16, Initial: HNSWIS, Routing: BaselineRoute})
		_, s3, _ := eng.Search(context.Background(), q, SearchOptions{K: 5, Beam: 16, Initial: HNSWIS, Routing: OracleRoute})
		lanNDC += s1.NDC
		baseNDC += s2.NDC
		oracleNDC += s3.NDC
	}
	if oracleNDC >= baseNDC {
		t.Fatalf("oracle np_route NDC %d >= baseline %d", oracleNDC, baseNDC)
	}
	if float64(lanNDC) > 1.2*float64(baseNDC) {
		t.Fatalf("learned np_route NDC %d far above baseline %d", lanNDC, baseNDC)
	}
	t.Logf("NDC: LAN_Route %d, oracle %d, baseline %d", lanNDC, oracleNDC, baseNDC)
}

func TestLANISBeatsRandIS(t *testing.T) {
	// Fig. 7's shape at unit scale: the learned initial selection must
	// dominate the random one on recall at equal beam.
	eng, _, db, test := buildEngine(t)
	var lanRecall, randRecall float64
	for _, q := range test {
		truth := dataset.BruteForceKNN(db, q, eng.Opts.QueryMetric, 5)
		r1, _, _ := eng.Search(context.Background(), q, SearchOptions{K: 5, Beam: 16, Initial: LANIS, Routing: LANRoute})
		r2, _, _ := eng.Search(context.Background(), q, SearchOptions{K: 5, Beam: 16, Initial: RandIS, Routing: LANRoute})
		lanRecall += dataset.Recall(r1, truth)
		randRecall += dataset.Recall(r2, truth)
	}
	if lanRecall < randRecall {
		t.Fatalf("LAN_IS recall %.3f < Rand_IS %.3f", lanRecall, randRecall)
	}
	t.Logf("recall sums: LAN_IS %.2f vs Rand_IS %.2f over %d queries", lanRecall, randRecall, len(test))
}

func TestModelTimeAccounting(t *testing.T) {
	eng, _, _, test := buildEngine(t)
	_, stats, _ := eng.Search(context.Background(), test[1], SearchOptions{K: 5, Beam: 12, Initial: LANIS, Routing: LANRoute})
	if stats.ModelTime <= 0 {
		t.Fatalf("no model time recorded: %+v", stats)
	}
	if stats.DistTime <= 0 {
		t.Fatalf("no distance time recorded: %+v", stats)
	}
	if stats.Total < stats.ModelTime || stats.Total < stats.DistTime {
		t.Fatalf("inconsistent breakdown: %+v", stats)
	}
	if stats.ISPredictions <= 0 {
		t.Fatalf("LANIS made no predictions: %+v", stats)
	}
}

func TestSearchDeterministic(t *testing.T) {
	eng, _, _, test := buildEngine(t)
	q := test[2]
	r1, _, _ := eng.Search(context.Background(), q, SearchOptions{K: 5, Beam: 12})
	r2, _, _ := eng.Search(context.Background(), q, SearchOptions{K: 5, Beam: 12})
	if len(r1) != len(r2) {
		t.Fatalf("different result counts")
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("nondeterministic search: %v vs %v", r1, r2)
		}
	}
}

func TestPseudoRandomEntryStableAndInRange(t *testing.T) {
	gen := graph.NewGenerator(3)
	q := gen.MoleculeLike(10, 1, []string{"A", "B"}, 0.3)
	a := pseudoRandomEntry(q, 100)
	b := pseudoRandomEntry(q, 100)
	if a != b {
		t.Fatalf("unstable: %d vs %d", a, b)
	}
	if a < 0 || a >= 100 {
		t.Fatalf("out of range: %d", a)
	}
	q2 := gen.MoleculeLike(11, 1, []string{"A", "B"}, 0.3)
	if pseudoRandomEntry(q2, 100) == a {
		t.Logf("collision between different queries (allowed but noted)")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}
	o.defaults(1000)
	if o.M != 8 || o.Dim != 16 {
		t.Fatalf("defaults: %+v", o)
	}
	if o.Clusters != 62 {
		t.Fatalf("clusters default = %d; want 1000/16", o.Clusters)
	}
	o2 := Options{}
	o2.defaults(10)
	if o2.Clusters != 2 {
		t.Fatalf("cluster floor = %d", o2.Clusters)
	}
}

func TestBasicISMatchesOptimizedQualityWithMorePredictions(t *testing.T) {
	// Sec. V-B1 vs V-B2: the exhaustive design makes O(|D|) predictions;
	// the cluster-pruned design makes far fewer at comparable entries.
	if testing.Short() {
		t.Skip("skipping in -short mode: cluster pruning only wins at full fixture scale")
	}
	eng, _, db, test := buildEngine(t)
	nq := 4
	if nq > len(test) {
		nq = len(test)
	}
	var optPreds, basicPreds int
	for _, q := range test[:nq] {
		_, s1, _ := eng.Search(context.Background(), q, SearchOptions{K: 5, Beam: 12, Initial: LANIS, Routing: LANRoute})
		_, s2, _ := eng.Search(context.Background(), q, SearchOptions{K: 5, Beam: 12, Initial: LANISBasic, Routing: LANRoute})
		optPreds += s1.ISPredictions
		basicPreds += s2.ISPredictions
	}
	if basicPreds != nq*len(db) {
		t.Fatalf("basic design made %d predictions; want %d", basicPreds, nq*len(db))
	}
	if optPreds >= basicPreds {
		t.Fatalf("optimized design not cheaper: %d >= %d", optPreds, basicPreds)
	}
	t.Logf("IS predictions: optimized %d vs basic %d", optPreds, basicPreds)
}

func TestConcurrentSearchesAreConsistent(t *testing.T) {
	eng, _, _, test := buildEngine(t)
	q := test[0]
	want, _, _ := eng.Search(context.Background(), q, SearchOptions{K: 5, Beam: 12})

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, _ := eng.Search(context.Background(), q, SearchOptions{K: 5, Beam: 12})
			if len(got) != len(want) {
				errs <- "length mismatch"
				return
			}
			for j := range want {
				if got[j] != want[j] {
					errs <- "result mismatch"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
