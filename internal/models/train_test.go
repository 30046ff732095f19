package models

import (
	"math"
	"testing"

	"github.com/lansearch/lan/internal/autograd"
	"github.com/lansearch/lan/internal/mat"
)

// rankTrainFixture is an untrained M_rk of the given shape over the
// AIDS-like fixture, with the first rank example of its training set.
func rankTrainFixture(tb testing.TB, cfg Config) (*fixture, *NeighborRanker, RankExample) {
	tb.Helper()
	f := newFixture(tb, 0.002, 2)
	cfg.GammaStar = f.gamma
	exs := BuildRankTrainingSet(f.index.PG, f.table, f.gamma)
	if len(exs) == 0 {
		tb.Fatal("no rank examples inside the neighborhood")
	}
	return f, NewNeighborRanker(cfg, f.store), exs[0]
}

// paramGrads copies every parameter gradient, in registration order.
func paramGrads(r *NeighborRanker) []*mat.Matrix {
	var out []*mat.Matrix
	for _, p := range r.Params.All() {
		if p.Grad == nil {
			out = append(out, mat.New(p.Data.Rows, p.Data.Cols))
		} else {
			out = append(out, p.Grad.Clone())
		}
	}
	return out
}

// TestRankTrainGradientIsSumOfHeadGradients holds the training step to the
// loss it is meant to descend: its parameter gradients must be the sum,
// over every (neighbour, head), of that one binary cross-entropy's
// gradient taken on a tape of its own. A step that back-propagates the
// heads one after the other through a tape they share, without clearing
// the trunk in between, counts the earlier heads again with every pass.
func TestRankTrainGradientIsSumOfHeadGradients(t *testing.T) {
	f, r, ex := rankTrainFixture(t, Config{Layers: 2, Dim: 8, BatchPercent: 20, Seed: 5})

	r.Params.ZeroGrad()
	r.trainStep(f.db, f.table, ex)
	got := paramGrads(r)

	r.Params.ZeroGrad()
	q, n := f.table.Queries[ex.Qi], len(ex.Neighbors)
	for j, nb := range ex.Neighbors {
		for i, h := range r.heads {
			in := autograd.ConcatCols(crossEncode(r.cross, r.store, f.db[nb], q), r.node.Forward(r.store.For(f.db[ex.Node])))
			autograd.Backward(autograd.BCEWithLogits(h.Apply(in), binaryTargets(r.headTarget(i, ex.Ranks[j], n))))
		}
	}
	want := paramGrads(r)

	// Relative to each parameter's own gradient, floored at a thousandth of
	// the largest: the attention vectors a1 only shift a softmax row, so
	// their true gradient is zero and what they hold is rounding.
	largest := 0.0
	for _, w := range want {
		largest = math.Max(largest, w.Norm2())
	}
	if largest == 0 {
		t.Fatal("reference gradient is zero; the example exercises nothing")
	}
	names := r.Params.Names()
	for k := range want {
		scale := math.Max(want[k].Norm2(), 1e-3*largest)
		if d := mat.MaxAbsDiff(got[k], want[k]); d > 1e-12*scale {
			t.Errorf("%s: step gradient differs from the sum of per-head gradients by %.3g (|want| = %.3g)", names[k], d, scale)
		}
	}
}

// TestRankTrainGradientFiniteDifference checks the same step against
// central differences of the summed loss on a ranker small enough to
// perturb every weight: 2 heads, Dim 4.
func TestRankTrainGradientFiniteDifference(t *testing.T) {
	f, r, ex := rankTrainFixture(t, Config{Layers: 2, Dim: 4, BatchPercent: 50, Seed: 9})
	if len(r.heads) != 2 {
		t.Fatalf("%d heads, want 2", len(r.heads))
	}
	r.Params.ZeroGrad()
	r.trainStep(f.db, f.table, ex)
	got := paramGrads(r)

	loss := func() float64 { return r.rankLoss(f.db, f.table, ex).Data.At(0, 0) }
	const h = 1e-6
	for k, p := range r.Params.All() {
		for i, orig := range p.Data.Data {
			p.Data.Data[i] = orig + h
			up := loss()
			p.Data.Data[i] = orig - h
			down := loss()
			p.Data.Data[i] = orig
			if want := (up - down) / (2 * h); math.Abs(got[k].Data[i]-want) > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: analytic %.9g, finite difference %.9g", r.Params.Names()[k], i, got[k].Data[i], want)
			}
		}
	}
}

var benchLoss float64

// BenchmarkRankTrainStep is one M_rk training step — one example's tape,
// one backward pass — without the optimizer: what an epoch pays per rank
// example, beside BenchmarkRankerCall's cost of using the result.
func BenchmarkRankTrainStep(b *testing.B) {
	f, r, ex := rankTrainFixture(b, Config{Layers: 2, Dim: 16, BatchPercent: 20, Seed: 5})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Params.ZeroGrad()
		benchLoss = r.trainStep(f.db, f.table, ex)
	}
}
