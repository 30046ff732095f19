package models

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/lansearch/lan/internal/cg"
	"github.com/lansearch/lan/internal/mat"
	"github.com/lansearch/lan/internal/nn"
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

// norm2 is m's Frobenius norm.
func norm2(m *mat.Matrix) float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// maxAbsDiff is the largest |a[i] - b[i]|.
func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i, v := range a {
		d = math.Max(d, math.Abs(v-b[i]))
	}
	return d
}

// TestRankTrainGradientIsSumOfHeadGradients holds the training step to the
// loss it is meant to descend: its parameter gradients must be the sum,
// over every (neighbour, head), of that one binary cross-entropy's
// gradient, each taken through forwards and backwards of its own. A step
// that let one head's gradient reach the encoders twice, or skipped a
// neighbour's cross backward, fails here.
func TestRankTrainGradientIsSumOfHeadGradients(t *testing.T) {
	td, r, ex := rankTrainFixture(t, Config{Dim: 8, Seed: 5})
	step := r.newRankStep(td)

	r.Params.ZeroGrad()
	step.run(ex)
	got := paramGrads(r)

	r.Params.ZeroGrad()
	dim := r.Cfg.Dim
	var node cg.GINPass
	var cross cg.CrossPass
	in, dIn := make([]float64, 3*dim), make([]float64, 3*dim)
	acts, buf := make([]float64, r.heads[0].Acts()), make([]float64, 2*r.heads[0].Width())
	qc, n := td.queries[ex.Qi], len(ex.Neighbors)
	for j, nb := range ex.Neighbors {
		for i, h := range r.heads {
			copy(in, cross.Forward(r.cross, r.store.For(td.db[nb]), qc))
			copy(in[2*dim:], node.Forward(r.node, r.store.For(td.db[ex.Node])))
			_, d := nn.BCEWithLogits(h.Forward(acts, in)[0], r.headTarget(i, ex.Ranks[j], n))
			clear(dIn)
			h.Backward(in, acts, []float64{d}, dIn, buf)
			cross.Backward(dIn[:2*dim])
			node.Backward(dIn[2*dim:])
		}
	}
	want := paramGrads(r)

	// Relative to each parameter's own gradient, floored at a thousandth of
	// the largest: the attention vectors a1 only shift a softmax row, so
	// their true gradient is zero and what they hold is rounding.
	largest := 0.0
	for _, w := range want {
		largest = math.Max(largest, norm2(w))
	}
	if largest == 0 {
		t.Fatal("reference gradient is zero; the example exercises nothing")
	}
	names := r.Params.Names()
	for k := range want {
		scale := math.Max(norm2(want[k]), 1e-3*largest)
		if d := maxAbsDiff(got[k].Data, want[k].Data); d > 1e-12*scale {
			t.Errorf("%s: step gradient differs from the sum of per-head gradients by %.3g (|want| = %.3g)", names[k], d, scale)
		}
	}
}

// TestRankTrainGradientFiniteDifference checks the same step against
// central differences of the summed loss on a ranker small enough to
// perturb every weight: the paper's five heads at Dim 4.
func TestRankTrainGradientFiniteDifference(t *testing.T) {
	td, r, ex := rankTrainFixture(t, Config{Dim: 4, Seed: 9})
	step := r.newRankStep(td)
	r.Params.ZeroGrad()
	step.run(ex)
	got := paramGrads(r)

	loss := func() float64 {
		step.run(ex)
		sum := 0.0
		for _, l := range step.losses {
			sum += l
		}
		return sum
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

// TestTrainLoopDecaysEveryFiveEpochs pins the paper's schedule: the
// learning rate starts at TrainOptions.LR and is multiplied by 0.96 after
// every fifth epoch. A lone weight with a constant gradient of 1 moves by
// the learning rate at every Adam step, so its steps read the schedule
// off, across two decays.
func TestTrainLoopDecaysEveryFiveEpochs(t *testing.T) {
	p := nn.NewParams()
	w := p.Add("w", mat.New(1, 1))
	const epochs, lr = 11, 0.01
	var at []float64
	trainLoop(p, 1, TrainOptions{Epochs: epochs, LR: lr}, 1, func(int) float64 {
		at = append(at, w.Data.Data[0])
		w.GradData()[0] = 1
		return 0
	})
	at = append(at, w.Data.Data[0])
	for e := 0; e < epochs; e++ {
		want := lr * math.Pow(0.96, float64(e/5))
		if got := at[e] - at[e+1]; math.Abs(got-want) > 1e-9 {
			t.Fatalf("epoch %d stepped by %.12g; want %.12g", e, got, want)
		}
	}
}

var benchLoss float64

// BenchmarkRankTrainStep is one M_rk training step — one example's
// forwards on warm passes, one backward each — without the optimizer:
// what an epoch pays per rank example, beside BenchmarkRankerCall's cost
// of using the result.
func BenchmarkRankTrainStep(b *testing.B) {
	td, r, ex := rankTrainFixture(b, Config{Dim: 16, Seed: 5})
	step := r.newRankStep(td)
	step.run(ex) // grow the passes, fill the CG cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Params.ZeroGrad()
		benchLoss = step.run(ex)
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
	td, m, exs := membershipTrainFixture(b, Config{Dim: 16, Seed: 5})
	step := m.newMembershipStep(td)
	for _, ex := range exs { // grow the pass, fill the CG cache
		step.run(ex)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Params.ZeroGrad()
		benchLoss = step.run(exs[i%len(exs)])
	}
}

// TestTrainStepAllocs pins training to memory it reuses: once the passes
// and the CG cache are warm, a step of M_rk or of M_nh stays under a
// hundred allocations (6,870 for M_rk when every op allocated its
// result; it is 0 now). Two collections first, as in ged's
// TestEnsembleAllocs, so a sweep in progress cannot be counted.
func TestTrainStepAllocs(t *testing.T) {
	cfg := Config{Dim: 16, Seed: 5}
	td, r, ex := rankTrainFixture(t, cfg)
	_, m, mexs := membershipTrainFixture(t, cfg)
	rs, ms := r.newRankStep(td), m.newMembershipStep(td)
	steps := map[string]func(){
		"M_rk": func() { r.Params.ZeroGrad(); rs.run(ex) },
		"M_nh": func() { m.Params.ZeroGrad(); ms.run(mexs[0]) },
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

// TestHeadFeaturesBackwardFiniteDifference checks HeadFeaturesBack
// against central differences of a fixed linear combination of the head
// input over the cross embedding.
func TestHeadFeaturesBackwardFiniteDifference(t *testing.T) {
	const dim = 4
	rng := rand.New(rand.NewSource(3))
	feat, c, dCross := make([]float64, 3*dim), make([]float64, 3*dim), make([]float64, 2*dim)
	for i := range c {
		c[i] = rng.NormFloat64()
	}
	for i := 0; i < 2*dim; i++ {
		feat[i] = rng.NormFloat64()
	}
	loss := func() float64 {
		HeadFeatures(feat, dim)
		s := 0.0
		for i, v := range feat {
			s += c[i] * v
		}
		return s
	}
	loss()
	HeadFeaturesBack(dCross, feat, c, dim)
	const h = 1e-6
	for i := range dCross {
		orig := feat[i]
		feat[i] = orig + h
		up := loss()
		feat[i] = orig - h
		down := loss()
		feat[i] = orig
		if want := (up - down) / (2 * h); math.Abs(dCross[i]-want) > 1e-7*(1+math.Abs(want)) {
			t.Fatalf("column %d: analytic %.10g, finite difference %.10g", i, dCross[i], want)
		}
	}
}
