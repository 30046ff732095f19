package models

import (
	"math"
	"runtime"
	"testing"

	"github.com/lansearch/lan/internal/autograd"
	"github.com/lansearch/lan/internal/mat"
)

// rankTrainFixture is an untrained M_rk of the given shape over the
// AIDS-like fixture, with what its training steps read and the first rank
// example of its training set.
func rankTrainFixture(tb testing.TB, cfg Config) (trainData, *NeighborRanker, RankExample) {
	tb.Helper()
	f := newFixture(tb, 0.002, 2)
	cfg.GammaStar = f.gamma
	exs := BuildRankTrainingSet(f.index.PG, f.table, f.gamma)
	if len(exs) == 0 {
		tb.Fatal("no rank examples inside the neighborhood")
	}
	return f.store.trainData(f.db, f.table), NewNeighborRanker(cfg, f.store), exs[0]
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
	td, r, ex := rankTrainFixture(t, Config{Layers: 2, Dim: 8, BatchPercent: 20, Seed: 5})
	tape := autograd.NewTape()

	r.Params.ZeroGrad()
	r.trainStep(tape, td, ex)
	got := paramGrads(r)

	r.Params.ZeroGrad()
	qc, n := td.queries[ex.Qi], len(ex.Neighbors)
	for j, nb := range ex.Neighbors {
		for i, h := range r.heads {
			tape.Reset()
			in := tape.ConcatCols(r.cross.Forward(tape, r.store.For(td.db[nb]), qc), r.node.Forward(tape, r.store.For(td.db[ex.Node])))
			tape.Backward(tape.BCEWithLogits(h.Apply(tape, in), []float64{r.headTarget(i, ex.Ranks[j], n)}))
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
	td, r, ex := rankTrainFixture(t, Config{Layers: 2, Dim: 4, BatchPercent: 50, Seed: 9})
	if len(r.heads) != 2 {
		t.Fatalf("%d heads, want 2", len(r.heads))
	}
	tape := autograd.NewTape()
	r.Params.ZeroGrad()
	r.trainStep(tape, td, ex)
	got := paramGrads(r)

	loss := func() float64 {
		tape.Reset()
		return r.rankLoss(tape, td, ex).Data.At(0, 0)
	}
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

// BenchmarkRankTrainStep is one M_rk training step — one example's graph
// on a warm tape, one backward pass — without the optimizer: what an epoch
// pays per rank example, beside BenchmarkRankerCall's cost of using the
// result.
func BenchmarkRankTrainStep(b *testing.B) {
	td, r, ex := rankTrainFixture(b, Config{Layers: 2, Dim: 16, BatchPercent: 20, Seed: 5})
	tape := autograd.NewTape()
	r.trainStep(tape, td, ex) // grow the tape, fill the CG cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Params.ZeroGrad()
		tape.Reset()
		benchLoss = r.trainStep(tape, td, ex)
	}
}

// membershipTrainFixture is an untrained M_nh over the AIDS-like fixture
// with its training set.
func membershipTrainFixture(tb testing.TB, cfg Config) (trainData, *NeighborhoodModel, []MembershipExample) {
	tb.Helper()
	f := newFixture(tb, 0.002, 2)
	cfg.GammaStar = f.gamma
	exs := BuildMembershipTrainingSet(f.table, f.gamma, 2, 1)
	if len(exs) == 0 {
		tb.Fatal("no membership examples")
	}
	return f.store.trainData(f.db, f.table), NewNeighborhoodModel(cfg, f.store), exs
}

// BenchmarkMembershipTrainStep is one M_nh training step, as
// BenchmarkRankTrainStep is one of M_rk's: one (G, Q) pair through the
// cross network and the head, one backward pass, no optimizer.
func BenchmarkMembershipTrainStep(b *testing.B) {
	td, m, exs := membershipTrainFixture(b, Config{Layers: 2, Dim: 16, Seed: 5})
	tape := autograd.NewTape()
	for _, ex := range exs { // grow the tape, fill the CG cache
		tape.Reset()
		m.trainStep(tape, td, ex)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Params.ZeroGrad()
		tape.Reset()
		benchLoss = m.trainStep(tape, td, exs[i%len(exs)])
	}
}

// TestTrainStepAllocs pins training to its tape: once the tape and the
// CG cache are warm, a step of M_rk or of M_nh stays under a hundred
// allocations (6,870 for M_rk before the tape; what is left is none of
// the graph's). Two collections first, as in ged's TestEnsembleAllocs, so
// a sweep in progress cannot be counted.
func TestTrainStepAllocs(t *testing.T) {
	cfg := Config{Layers: 2, Dim: 16, BatchPercent: 20, Seed: 5}
	td, r, ex := rankTrainFixture(t, cfg)
	_, m, mexs := membershipTrainFixture(t, cfg)
	tape := autograd.NewTape()
	steps := map[string]func(){
		"M_rk": func() { r.Params.ZeroGrad(); tape.Reset(); r.trainStep(tape, td, ex) },
		"M_nh": func() { m.Params.ZeroGrad(); tape.Reset(); m.trainStep(tape, td, mexs[0]) },
	}
	for name, step := range steps {
		step()
		runtime.GC()
		runtime.GC()
		if n := testing.AllocsPerRun(10, step); n >= 100 {
			t.Errorf("%s: %v allocations per warm training step, want < 100", name, n)
		} else {
			t.Logf("%s: %v allocations per warm training step", name, n)
		}
	}
}
