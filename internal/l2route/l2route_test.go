package l2route

import (
	"context"
	"testing"

	"github.com/lansearch/lan/ged"
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

func TestIndexStructure(t *testing.T) {
	db := dataset.AIDS(0.002).Generate()
	enc := NewEncoder(db, 2, 8, 4)
	idx := BuildIndex(db, enc, 4)
	if len(idx.Vectors) != len(db) || len(idx.Adj) != len(db) {
		t.Fatalf("index shape wrong")
	}
	for u, ns := range idx.Adj {
		if len(ns) == 0 {
			t.Fatalf("node %d isolated", u)
		}
		for i, v := range ns {
			if v == u || v < 0 || v >= len(db) {
				t.Fatalf("bad neighbor %d of %d", v, u)
			}
			if i > 0 && ns[i-1] >= v {
				t.Fatalf("adjacency unsorted")
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
	idx := BuildIndex(db, enc, 6)
	queries := dataset.Workload(db, spec, 8, 7)

	var rSmall, rLarge, ndcSmall, ndcLarge float64
	for _, q := range queries {
		truth := dataset.BruteForceKNN(db, q, metric, 5)

		c1 := pg.NewDistCache(metric, db, q)
		got1, s1, _ := idx.Search(context.Background(), q, c1, 5, 10, 10)
		rSmall += dataset.Recall(got1, truth)
		ndcSmall += float64(s1.NDC)

		c2 := pg.NewDistCache(metric, db, q)
		got2, s2, _ := idx.Search(context.Background(), q, c2, 5, 80, 80)
		rLarge += dataset.Recall(got2, truth)
		ndcLarge += float64(s2.NDC)
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
	idx := BuildIndex(db, enc, 4)
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
