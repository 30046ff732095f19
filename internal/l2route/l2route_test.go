package l2route

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/internal/pg"
)

func TestEncoderEmbedShapeAndDeterminism(t *testing.T) {
	db := dataset.AIDS(0.001).Generate()
	enc := NewEncoder(db, 2, 8, 1)
	e1 := enc.Embed(db[0])
	e2 := enc.Embed(db[0])
	if len(e1) != 8 {
		t.Fatalf("dim %d", len(e1))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("not deterministic")
		}
	}
}

// TestEncoderGradientFiniteDifference checks a training step's gradient
// — the squared-L2 loss back through both GIN passes — against central
// differences of the loss over every weight, for a pair of distinct
// graphs and a graph paired with itself.
func TestEncoderGradientFiniteDifference(t *testing.T) {
	db := dataset.AIDS(0.001).Generate()
	enc := NewEncoder(db, 2, 3, 4)
	s := enc.newPairStep()
	for _, p := range []Pair{{A: db[0], B: db[1], D: 3}, {A: db[2], B: db[2], D: 1}} {
		enc.Params.ZeroGrad()
		s.run(p)
		var grads [][]float64 // the FD's own runs add to the gradients
		for _, v := range enc.Params.All() {
			grads = append(grads, slices.Clone(v.Grad.Data))
		}
		const h = 1e-6
		for k, v := range enc.Params.All() {
			for i, orig := range v.Data.Data {
				v.Data.Data[i] = orig + h
				up := s.run(p)
				v.Data.Data[i] = orig - h
				down := s.run(p)
				v.Data.Data[i] = orig
				want := (up - down) / (2 * h)
				if got := grads[k][i]; math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
					t.Fatalf("%s[%d]: analytic %.9g, finite difference %.9g", enc.Params.Names()[k], i, got, want)
				}
			}
		}
	}
}

func TestEncoderTrainImprovesCorrelation(t *testing.T) {
	spec := dataset.AIDS(0.002)
	db := spec.Generate()
	metric := ged.MetricFunc(ged.Hungarian)
	enc := NewEncoder(db, 2, 8, 2)
	pairs := SamplePairs(db, metric, 80, 5)

	mse := func() float64 {
		total := 0.0
		for _, p := range pairs {
			d := sqL2(enc.Embed(p.A), enc.Embed(p.B))
			total += (d - p.D) * (d - p.D)
		}
		return total / float64(len(pairs))
	}
	before := mse()
	if err := enc.Train(pairs, 5, 0.01); err != nil {
		t.Fatalf("Train: %v", err)
	}
	after := mse()
	if after >= before {
		t.Fatalf("siamese training did not reduce MSE: %v -> %v", before, after)
	}
	t.Logf("siamese MSE: %.2f -> %.2f", before, after)
}

func TestEncoderTrainEmptyPairs(t *testing.T) {
	db := dataset.AIDS(0.0005).Generate()
	enc := NewEncoder(db, 2, 4, 3)
	if err := enc.Train(nil, 1, 0.01); err == nil {
		t.Fatal("no error for empty pairs")
	}
}

// buildIndex is BuildIndex that fails the test on error.
func buildIndex(t *testing.T, db graph.Database, enc *Encoder, m int) *Index {
	t.Helper()
	idx, err := BuildIndex(db, enc, m)
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	return idx
}

func TestIndexStructure(t *testing.T) {
	db := dataset.AIDS(0.002).Generate()
	enc := NewEncoder(db, 2, 8, 4)
	idx := buildIndex(t, db, enc, 4)
	if len(idx.Vectors) != len(db) || idx.HNSW.PG.Len() != len(db) {
		t.Fatalf("index shape wrong")
	}
	if err := idx.HNSW.PG.Validate(); err != nil {
		t.Fatal(err)
	}
	for u, ns := range idx.HNSW.PG.Adj {
		if len(ns) == 0 {
			t.Fatalf("node %d isolated", u)
		}
	}
}

// TestVectorStageChargesNoGED: routing in embedding space pays no GED,
// so a query's NDC is exactly the min(verify, beam) candidates verified.
func TestVectorStageChargesNoGED(t *testing.T) {
	db := dataset.AIDS(0.002).Generate()
	idx := buildIndex(t, db, NewEncoder(db, 2, 8, 4), 4)
	metric := ged.MetricFunc(ged.VJ)
	for qi, q := range dataset.Workload(db, dataset.AIDS(0.002), 4, 11) {
		for _, bv := range [][2]int{{10, 4}, {10, 10}, {8, 20}, {24, 12}} {
			beam, verify := bv[0], bv[1]
			if len(db) < beam {
				t.Fatalf("fixture has %d graphs, fewer than beam %d", len(db), beam)
			}
			c := pg.NewDistCache(metric, db, q)
			if _, _, err := idx.Search(context.Background(), q, c, 3, beam, verify); err != nil {
				t.Fatal(err)
			}
			if want := min(verify, beam); c.NDC() != want {
				t.Errorf("query %d beam %d verify %d: NDC %d; want %d", qi, beam, verify, c.NDC(), want)
			}
		}
	}
}

// cancelInside cancels the query's context inside its n-th GED call
// (n = 0: never) and counts the calls that started.
type cancelInside struct {
	ged.Metric
	n, calls int
	cancel   context.CancelFunc
}

func (m *cancelInside) Distance(g, h *graph.Graph) float64 {
	m.calls++
	if m.calls == m.n {
		m.cancel()
	}
	return m.Metric.Distance(g, h)
}

// TestSearchCancelInsideEveryDistance: a cancel that lands inside the
// k-th verification distance ends the query with ctx.Err() and NDC == k,
// the last distance included.
func TestSearchCancelInsideEveryDistance(t *testing.T) {
	db := dataset.AIDS(0.002).Generate()
	idx := buildIndex(t, db, NewEncoder(db, 2, 8, 4), 4)
	for qi, q := range dataset.Workload(db, dataset.AIDS(0.002), 3, 13) {
		run := func(n int) (int, int, error) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			m := &cancelInside{Metric: ged.MetricFunc(ged.VJ), n: n, cancel: cancel}
			c := pg.NewDistCache(m, db, q)
			_, _, err := idx.Search(ctx, q, c, 3, 8, 8)
			return m.calls, c.NDC(), err
		}
		ndc, _, err := run(0)
		if err != nil || ndc == 0 {
			t.Fatalf("query %d: uncancelled search: %d calls, err %v", qi, ndc, err)
		}
		for k := 1; k <= ndc; k++ {
			calls, ndcAt, err := run(k)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("query %d: cancel inside call %d/%d: err = %v; want context.Canceled", qi, k, ndc, err)
			}
			if calls != k || ndcAt != k {
				t.Errorf("query %d: cancel inside call %d/%d: %d calls, NDC %d", qi, k, ndc, calls, ndcAt)
			}
		}
	}
}

func TestSearchEndToEndRecall(t *testing.T) {
	spec := dataset.AIDS(0.003)
	db := spec.Generate()
	metric := ged.MetricFunc(ged.Hungarian)
	enc := NewEncoder(db, 2, 8, 5)
	if err := enc.Train(SamplePairs(db, metric, 60, 6), 3, 0.01); err != nil {
		t.Fatal(err)
	}
	idx := buildIndex(t, db, enc, 6)
	queries := dataset.Workload(db, spec, 8, 7)

	var rSmall, rLarge, ndcSmall, ndcLarge float64
	for _, q := range queries {
		truth := dataset.BruteForceKNN(db, q, metric, 5)

		c1 := pg.NewDistCache(metric, db, q)
		got1, _, _ := idx.Search(context.Background(), q, c1, 5, 10, 10)
		rSmall += dataset.Recall(got1, truth)
		ndcSmall += float64(c1.NDC())

		c2 := pg.NewDistCache(metric, db, q)
		got2, _, _ := idx.Search(context.Background(), q, c2, 5, 80, 80)
		rLarge += dataset.Recall(got2, truth)
		ndcLarge += float64(c2.NDC())
	}
	n := float64(len(queries))
	t.Logf("recall small=%.3f (ndc %.0f)  large=%.3f (ndc %.0f)", rSmall/n, ndcSmall/n, rLarge/n, ndcLarge/n)
	if rLarge < rSmall {
		t.Fatalf("more verification lowered recall: %v < %v", rLarge/n, rSmall/n)
	}
	if ndcLarge <= ndcSmall {
		t.Fatalf("verification did not grow NDC")
	}
	if rLarge/n < 0.5 {
		t.Fatalf("large-beam recall %.3f too low — encoder broken", rLarge/n)
	}
}

func TestSearchResultsSortedByGED(t *testing.T) {
	db := dataset.AIDS(0.001).Generate()
	metric := ged.MetricFunc(ged.VJ)
	enc := NewEncoder(db, 2, 6, 8)
	idx := buildIndex(t, db, enc, 4)
	q := dataset.Workload(db, dataset.AIDS(0.001), 1, 9)[0]
	c := pg.NewDistCache(metric, db, q)
	res, _, _ := idx.Search(context.Background(), q, c, 5, 20, 15)
	for i := 1; i < len(res); i++ {
		if res[i-1].Dist > res[i].Dist {
			t.Fatalf("unsorted results: %v", res)
		}
	}
	if len(res) > 5 {
		t.Fatalf("k overflow: %d", len(res))
	}
}
