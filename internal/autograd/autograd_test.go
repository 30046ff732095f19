// Package autograd holds no program code. Its tests check, one rule of
// differentiation at a time, the hand-written backward passes the models
// train with — nn.MLP's, cg.CrossPass's and cg.GINPass's, the losses'
// derivatives in nn and models.HeadFeaturesBack — by central differences
// of the forward each gradient belongs to, and with == where a rule must
// not move a bit. The per-pass checks beside each pass (nn, cg, models,
// l2route) cover whole passes; these pin the rules one by one.
package autograd

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/cg"
	"github.com/lansearch/lan/internal/mat"
	"github.com/lansearch/lan/internal/models"
	"github.com/lansearch/lan/internal/nn"
)

// graphs draws n molecule-like graphs of 5 to 12 nodes and the
// vocabulary of their labels.
func graphs(seed int64, n int) ([]*graph.Graph, *cg.Vocab) {
	labels := []string{"C", "N", "O", "S", "P"}
	gen := graph.NewGenerator(seed)
	gs := make([]*graph.Graph, n)
	for i := range gs {
		gs[i] = gen.MoleculeLike(5+i%8, i%3, labels, 0.4)
	}
	return gs, cg.NewVocab(graph.NewDatabase(gs))
}

func randn(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func dot(c, x []float64) float64 {
	s := 0.0
	for i, v := range x {
		s += c[i] * v
	}
	return s
}

// crossModel registers a cross model with its attention weights scaled
// by 4, so the softmax rows are far from uniform.
func crossModel(p *nn.Params, layers int, vocab *cg.Vocab, rng *rand.Rand) *cg.CrossModel {
	m := cg.NewCrossModel(p, "x", cg.Config{Layers: layers, Dim: 3, Vocab: vocab}, rng)
	for _, a := range m.A2 {
		for i := range a.Data.Data {
			a.Data.Data[i] *= 4
		}
	}
	return m
}

// checkGrad compares got, the analytic gradient of loss in the entries of
// x, with central differences. ReLU kinks are the only non-smooth points;
// Gaussian weights keep pre-activations off them.
func checkGrad(t *testing.T, what string, x, got []float64, loss func() float64) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s received no gradient", what)
	}
	const h = 1e-6
	for i, orig := range x {
		x[i] = orig + h
		up := loss()
		x[i] = orig - h
		down := loss()
		x[i] = orig
		if want := (up - down) / (2 * h); math.Abs(got[i]-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("%s[%d]: analytic %.10g, finite difference %.10g", what, i, got[i], want)
		}
	}
}

// checkParams runs checkGrad over the parameters of p whose names start
// with one of prefixes (every parameter when none is given).
func checkParams(t *testing.T, p *nn.Params, loss func() float64, prefixes ...string) {
	t.Helper()
	checked := 0
	for _, name := range p.Names() {
		keep := len(prefixes) == 0
		for _, pre := range prefixes {
			keep = keep || strings.HasPrefix(name, pre)
		}
		if !keep {
			continue
		}
		v := p.Get(name)
		var g []float64
		if v.Grad != nil {
			g = v.Grad.Data
		}
		checkGrad(t, name, v.Data.Data, g, loss)
		checked++
	}
	if checked == 0 {
		t.Fatalf("no parameter matches %q", prefixes)
	}
}

// mlpRun is an MLP's training memory: the recorded activations and
// Backward's scratch.
type mlpRun struct{ acts, buf []float64 }

func newMLPRun(m *nn.MLP) mlpRun {
	return mlpRun{acts: make([]float64, m.Acts()), buf: make([]float64, 2*m.Width())}
}

// TestGradMatMulChain: chained products — the MLP's layers, each a
// product by W whose gradient reaches W and, through Wᵀ, the layer below
// and the input.
func TestGradMatMulChain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := nn.NewParams()
	m := nn.NewMLP(p, "mlp", []int{4, 5, 3, 2}, rng)
	r := newMLPRun(m)
	x, c := randn(rng, 4), randn(rng, 2)
	dx := make([]float64, len(x))
	m.Forward(r.acts, x)
	m.Backward(x, r.acts, c, dx, r.buf)
	loss := func() float64 { return dot(c, m.Infer(x, r.buf)) }
	checkParams(t, p, loss)
	checkGrad(t, "input", x, dx, loss)
}

// TestGradAddScaleReLU: the bias addition, ReLU's mask and a scaled loss
// (1.5 times the output's sum) through an MLP with one hidden unit cut
// off by ReLU and one certainly live.
func TestGradAddScaleReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := nn.NewParams()
	m := nn.NewMLP(p, "mlp", []int{3, 6, 2}, rng)
	for j := range m.Layers[0].B.Data.Data {
		m.Layers[0].B.Data.Data[j] = rng.NormFloat64()
	}
	m.Layers[0].B.Data.Data[0], m.Layers[0].B.Data.Data[1] = -100, 100
	r := newMLPRun(m)
	x := randn(rng, 3)
	dx := make([]float64, len(x))
	m.Forward(r.acts, x)
	if r.acts[0] != 0 || !(r.acts[1] > 0) {
		t.Fatalf("hidden units 0 and 1 = %v, %v: want one cut, one live", r.acts[0], r.acts[1])
	}
	m.Backward(x, r.acts, []float64{1.5, 1.5}, dx, r.buf)
	if g := m.Layers[0].B.Grad.Data[0]; g != 0 {
		t.Fatalf("a unit ReLU cut off passed gradient %v to its bias", g)
	}
	loss := func() float64 {
		out := m.Infer(x, r.buf)
		return 1.5 * (out[0] + out[1])
	}
	checkParams(t, p, loss)
	checkGrad(t, "input", x, dx, loss)
}

// TestGradSoftmaxRows: the attention softmax. At one layer a2 reaches the
// loss only through it: the keys are look-ups of a2, the softmax turns
// them into the weights of the message.
func TestGradSoftmaxRows(t *testing.T) {
	gs, vocab := graphs(4, 8)
	rng := rand.New(rand.NewSource(4))
	p := nn.NewParams()
	m := crossModel(p, 1, vocab, rng)
	g, q := cg.Build(gs[6], 1, vocab), cg.Build(gs[7], 1, vocab)
	c := randn(rng, m.Cfg.CrossDim())
	var pass cg.CrossPass
	pass.Forward(m, g, q)
	pass.Backward(c)
	checkParams(t, p, func() float64 { return dot(c, m.Infer(g, q)) }, "x.a2_")
}

// TestGradConcatCols: the output is h_G || h_Q, and a gradient on either
// half reaches the parameters through that half's side alone.
func TestGradConcatCols(t *testing.T) {
	gs, vocab := graphs(5, 8)
	rng := rand.New(rand.NewSource(5))
	g, q := cg.Build(gs[5], 2, vocab), cg.Build(gs[2], 2, vocab)
	for half := 0; half < 2; half++ {
		p := nn.NewParams()
		m := crossModel(p, 2, vocab, rng)
		dim := m.Cfg.Dim
		c := make([]float64, 2*dim)
		copy(c[half*dim:(half+1)*dim], randn(rng, dim))
		var pass cg.CrossPass
		pass.Forward(m, g, q)
		pass.Backward(c)
		checkParams(t, p, func() float64 { return dot(c, m.Infer(g, q)) }, "x.W", "x.a2_")
	}
}

// TestGradAddRowBroadcast: a row added to every row of a matrix gets the
// sum of their gradients. The last bias row of an MLP passes the output's
// gradient on unchanged; a side's cross message is added to each of its
// groups' rows, and with the loss on h_G alone the second layer's message
// is the way Q's first-level rows reach the loss.
func TestGradAddRowBroadcast(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := nn.NewParams()
	mlp := nn.NewMLP(p, "mlp", []int{3, 4, 2}, rng)
	r := newMLPRun(mlp)
	x, c := randn(rng, 3), randn(rng, 2)
	mlp.Forward(r.acts, x)
	mlp.Backward(x, r.acts, c, nil, r.buf)
	for j, g := range mlp.Layers[1].B.Grad.Data {
		if g != c[j] {
			t.Fatalf("last bias gradient[%d] = %v, want the output's %v", j, g, c[j])
		}
	}

	gs, vocab := graphs(7, 8)
	p = nn.NewParams()
	m := crossModel(p, 2, vocab, rng)
	g, q := cg.Build(gs[4], 2, vocab), cg.Build(gs[7], 2, vocab)
	dOut := make([]float64, m.Cfg.CrossDim())
	copy(dOut, randn(rng, m.Cfg.Dim))
	var pass cg.CrossPass
	pass.Forward(m, g, q)
	pass.Backward(dOut)
	checkParams(t, p, func() float64 { return dot(dOut, m.Infer(g, q)) }, "x.W", "x.a2_")
}

// TestGradWeightedMeanRows: the readout, a mean of the last level's rows
// weighted by group size.
func TestGradWeightedMeanRows(t *testing.T) {
	gs, vocab := graphs(8, 8)
	rng := rand.New(rand.NewSource(8))
	p := nn.NewParams()
	m := cg.NewGINModel(p, "gin", cg.Config{Layers: 1, Dim: 3, Vocab: vocab}, rng)
	c := cg.Build(gs[7], 1, vocab)
	if !hasGroupLargerThanOne(c.Levels[1].Size) {
		t.Fatalf("level-1 sizes %v: want a group of several nodes", c.Levels[1].Size)
	}
	w := randn(rng, m.Cfg.Dim)
	var pass cg.GINPass
	pass.Forward(m, c)
	pass.Backward(w)
	checkParams(t, p, func() float64 { return dot(w, m.Embed(c)) })
}

func hasGroupLargerThanOne(sizes []float64) bool {
	for _, s := range sizes {
		if s > 1 {
			return true
		}
	}
	return false
}

// TestGradLinearCombRows: the aggregation, each group's row a weighted
// sum of rows of the level below, passes each term's weight times its
// gradient down to that row.
func TestGradLinearCombRows(t *testing.T) {
	gs, vocab := graphs(20, 8)
	rng := rand.New(rand.NewSource(20))
	p := nn.NewParams()
	m := cg.NewGINModel(p, "gin", cg.Config{Layers: 2, Dim: 3, Vocab: vocab}, rng)
	c := cg.Build(gs[7], 2, vocab)
	weighted := false
	for _, terms := range c.Levels[2].In {
		for _, e := range terms {
			weighted = weighted || e.W != 1
		}
	}
	if !weighted {
		t.Fatal("no level-2 aggregation term has a weight other than 1")
	}
	w := randn(rng, m.Cfg.Dim)
	var pass cg.GINPass
	pass.Forward(m, c)
	pass.Backward(w)
	checkParams(t, p, func() float64 { return dot(w, m.Embed(c)) })
}

// TestGradTranspose: the keys over a level of dense rows, h_j·a2 — the
// rows times a2, read as one row of scores. a2_2 reaches the loss only
// through them, and W1 partly.
func TestGradTranspose(t *testing.T) {
	gs, vocab := graphs(21, 8)
	rng := rand.New(rand.NewSource(21))
	p := nn.NewParams()
	m := crossModel(p, 2, vocab, rng)
	g, q := cg.Build(gs[3], 2, vocab), cg.Build(gs[6], 2, vocab)
	c := randn(rng, m.Cfg.CrossDim())
	var pass cg.CrossPass
	pass.Forward(m, g, q)
	pass.Backward(c)
	checkParams(t, p, func() float64 { return dot(c, m.Infer(g, q)) }, "x.a2_2", "x.W1")
}

// TestGradDiamondReuse: a value used on several paths receives the sum of
// their gradients. Each first-level row of a two-layer cross model feeds
// several groups' aggregations, the keys and the message of the other
// side.
func TestGradDiamondReuse(t *testing.T) {
	gs, vocab := graphs(14, 8)
	rng := rand.New(rand.NewSource(14))
	p := nn.NewParams()
	m := crossModel(p, 2, vocab, rng)
	g, q := cg.Build(gs[7], 2, vocab), cg.Build(gs[5], 2, vocab)
	uses := map[int]int{}
	for _, terms := range g.Levels[2].In {
		for _, e := range terms {
			uses[e.Row]++
		}
	}
	shared := false
	for _, n := range uses {
		shared = shared || n > 1
	}
	if !shared {
		t.Fatal("no first-level row of G feeds two groups")
	}
	c := randn(rng, m.Cfg.CrossDim())
	var pass cg.CrossPass
	pass.Forward(m, g, q)
	pass.Backward(c)
	checkParams(t, p, func() float64 { return dot(c, m.Infer(g, q)) }, "x.W", "x.a2_")
}

// nhModel is M_nh's shape in miniature: a cross model, the head features
// of its output and an MLP head giving one logit.
type nhModel struct {
	p     *nn.Params
	cross *cg.CrossModel
	head  *nn.MLP
	dim   int
}

func newNHModel(vocab *cg.Vocab, rng *rand.Rand) *nhModel {
	p := nn.NewParams()
	const dim = 3
	cross := crossModel(p, 2, vocab, rng)
	return &nhModel{p: p, cross: cross, head: nn.NewMLP(p, "head", []int{3 * dim, 4, 1}, rng), dim: dim}
}

// nhStep is what a training step of nhModel runs on.
type nhStep struct {
	m                   *nhModel
	pass                cg.CrossPass
	run                 mlpRun
	dOut                [1]float64
	feat, dFeat, dCross []float64
}

func newNHStep(m *nhModel) *nhStep {
	return &nhStep{m: m, run: newMLPRun(m.head),
		feat: make([]float64, 3*m.dim), dFeat: make([]float64, 3*m.dim), dCross: make([]float64, 2*m.dim)}
}

// step adds the gradient of the pair's binary cross-entropy against y to
// the parameters and returns the loss.
func (s *nhStep) step(g, q *cg.Compressed, y float64) float64 {
	m := s.m
	copy(s.feat, s.pass.Forward(m.cross, g, q))
	models.HeadFeatures(s.feat, m.dim)
	loss, d := nn.BCEWithLogits(m.head.Forward(s.run.acts, s.feat)[0], y)
	s.dOut[0] = d
	clear(s.dFeat)
	m.head.Backward(s.feat, s.run.acts, s.dOut[:], s.dFeat, s.run.buf)
	models.HeadFeaturesBack(s.dCross, s.feat, s.dFeat, m.dim)
	s.pass.Backward(s.dCross)
	return loss
}

// loss is step's loss on the inference path.
func (m *nhModel) loss(g, q *cg.Compressed, y float64, buf []float64) float64 {
	feat := make([]float64, 3*m.dim)
	copy(feat, m.cross.Infer(g, q))
	models.HeadFeatures(feat, m.dim)
	l, _ := nn.BCEWithLogits(m.head.Infer(feat, buf)[0], y)
	return l
}

// TestGradDeepComposite: every rule at once — a two-layer cross model,
// the head features, an MLP head and the binary cross-entropy, summed
// over pairs of both labels.
func TestGradDeepComposite(t *testing.T) {
	gs, vocab := graphs(15, 8)
	rng := rand.New(rand.NewSource(15))
	m := newNHModel(vocab, rng)
	s := newNHStep(m)
	type pair struct {
		g, q *cg.Compressed
		y    float64
	}
	var pairs []pair
	for i := 0; i+1 < len(gs); i += 2 {
		pairs = append(pairs, pair{cg.Build(gs[i], 2, vocab), cg.Build(gs[i+1], 2, vocab), float64(i / 2 % 2)})
	}
	for _, pr := range pairs {
		s.step(pr.g, pr.q, pr.y)
	}
	buf := make([]float64, 2*m.head.Width())
	checkParams(t, m.p, func() float64 {
		sum := 0.0
		for _, pr := range pairs {
			sum += m.loss(pr.g, pr.q, pr.y, buf)
		}
		return sum
	}, "x.W", "x.a2_", "head.")
}

// TestGradMulElementwise: the head features' squared difference
// (h_G − h_Q)², an elementwise product of a difference with itself.
func TestGradMulElementwise(t *testing.T) {
	const dim = 4
	rng := rand.New(rand.NewSource(10))
	feat, dFeat, dCross := make([]float64, 3*dim), make([]float64, 3*dim), make([]float64, 2*dim)
	copy(feat, randn(rng, 2*dim))
	copy(dFeat[2*dim:], randn(rng, dim))
	models.HeadFeatures(feat, dim)
	models.HeadFeaturesBack(dCross, feat, dFeat, dim)
	checkGrad(t, "cross", feat[:2*dim], dCross, func() float64 {
		models.HeadFeatures(feat, dim)
		return dot(dFeat[2*dim:], feat[2*dim:])
	})
}

// TestGradGatherCols: the head features keep the cross embedding's own
// columns, so with no gradient on the squared difference the cross
// embedding's gradient is the head input's first 2·dim columns, bit for
// bit; with one, the two shares add.
func TestGradGatherCols(t *testing.T) {
	const dim = 4
	rng := rand.New(rand.NewSource(18))
	feat, dFeat, dCross := make([]float64, 3*dim), make([]float64, 3*dim), make([]float64, 2*dim)
	copy(feat, randn(rng, 2*dim))
	copy(dFeat, randn(rng, 2*dim))
	models.HeadFeatures(feat, dim)
	models.HeadFeaturesBack(dCross, feat, dFeat, dim)
	for i, g := range dCross {
		if g != dFeat[i] {
			t.Fatalf("column %d: gradient %v, want the head input's %v", i, g, dFeat[i])
		}
	}
	copy(dFeat[2*dim:], randn(rng, dim))
	models.HeadFeaturesBack(dCross, feat, dFeat, dim)
	checkGrad(t, "cross", feat[:2*dim], dCross, func() float64 {
		models.HeadFeatures(feat, dim)
		return dot(dFeat, feat)
	})
}

// TestGradBCEWithLogits: the binary cross-entropy's derivative, σ(x) − t,
// at logits from far negative to far positive against both targets; the
// loss stays finite and non-negative where a naive log(σ(x)) would not.
func TestGradBCEWithLogits(t *testing.T) {
	for _, x := range []float64{-40, -3, -0.5, 0.2, 2, 35} {
		for _, target := range []float64{0, 1} {
			loss, grad := nn.BCEWithLogits(x, target)
			if math.IsNaN(loss) || math.IsInf(loss, 0) || loss < 0 {
				t.Fatalf("BCE(%v, %v) = %v", x, target, loss)
			}
			xs := []float64{x}
			checkGrad(t, "logit", xs, []float64{grad}, func() float64 {
				l, _ := nn.BCEWithLogits(xs[0], target)
				return l
			})
		}
	}
}

// TestGradMSE: the squared error's derivative, 2(x − t).
func TestGradMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 8; i++ {
		xs, target := randn(rng, 1), rng.NormFloat64()
		_, grad := nn.MSE(xs[0], target)
		checkGrad(t, "prediction", xs, []float64{grad}, func() float64 {
			l, _ := nn.MSE(xs[0], target)
			return l
		})
	}
}

// grads copies every parameter gradient of p.
func grads(p *nn.Params) [][]float64 {
	var out [][]float64
	for _, v := range p.All() {
		var g []float64
		if v.Grad != nil {
			g = append(g, v.Grad.Data...)
		}
		out = append(out, g)
	}
	return out
}

// TestGradAccumulatesAcrossBackwardCalls: backward rules add into a
// parameter's gradient, never overwrite it, so two backward passes of one
// recorded forward leave twice the gradient — exactly, for the MLP and
// the GIN, whose every gradient is one product added once — and ZeroGrad
// clears them all.
func TestGradAccumulatesAcrossBackwardCalls(t *testing.T) {
	gs, vocab := graphs(17, 8)
	rng := rand.New(rand.NewSource(17))
	p := nn.NewParams()
	mlp := nn.NewMLP(p, "mlp", []int{3, 4, 2}, rng)
	gin := cg.NewGINModel(p, "gin", cg.Config{Layers: 2, Dim: 3, Vocab: vocab}, rng)
	r := newMLPRun(mlp)
	x, c := randn(rng, 3), randn(rng, 3)
	mlp.Forward(r.acts, x)
	var pass cg.GINPass
	pass.Forward(gin, cg.Build(gs[7], 2, vocab))
	backward := func() {
		mlp.Backward(x, r.acts, c[:2], nil, r.buf)
		pass.Backward(c)
	}
	backward()
	first := grads(p)
	backward()
	for k, g := range grads(p) {
		if len(g) == 0 {
			t.Fatalf("%s received no gradient", p.Names()[k])
		}
		for i, v := range g {
			if v != 2*first[k][i] {
				t.Fatalf("%s[%d]: %v after two backward passes, want 2 × %v", p.Names()[k], i, v, first[k][i])
			}
		}
	}
	p.ZeroGrad()
	for _, v := range p.All() {
		for _, g := range v.Grad.Data {
			if g != 0 {
				t.Fatal("ZeroGrad left a gradient")
			}
		}
	}
}

// TestBackwardTwiceOverSharedTrunk pins that two losses over one recorded
// forward, back-propagated one after the other, leave the sum of their
// gradients: x·w1 → ReLU → ·w2 with x = 3 and w1 = w2 = 1, its output's
// gradient 1 and then 10, gives each weight 3 + 30 = 33. A backward that
// kept the interior gradient of the first call would reach 39 or more.
func TestBackwardTwiceOverSharedTrunk(t *testing.T) {
	p := nn.NewParams()
	m := nn.NewMLP(p, "mlp", []int{1, 1, 1}, rand.New(rand.NewSource(1)))
	m.Layers[0].W.Data.Data[0], m.Layers[1].W.Data.Data[0] = 1, 1
	r := newMLPRun(m)
	x := []float64{3}
	m.Forward(r.acts, x)
	m.Backward(x, r.acts, []float64{1}, nil, r.buf)
	m.Backward(x, r.acts, []float64{10}, nil, r.buf)
	for i, l := range m.Layers {
		if got := l.W.Grad.Data[0]; got != 33 {
			t.Fatalf("layer %d: weight gradient %v after two backward passes over one trunk, want 3 + 30 = 33", i, got)
		}
		if got := l.B.Grad.Data[0]; got != 11 {
			t.Fatalf("layer %d: bias gradient %v, want 1 + 10 = 11", i, got)
		}
	}
}

// TestSoftmaxRowsNumericallyStable: the attention softmax subtracts its
// row's largest score before exponentiating. At one layer the keys are
// look-ups of a2, so adding 1000 to every entry of a2 shifts a whole row
// of scores — past where e^score overflows — and must leave the output
// and the gradients finite, the output unchanged, and a2's gradient
// summing to zero (a uniform shift is a direction the loss does not
// change along).
func TestSoftmaxRowsNumericallyStable(t *testing.T) {
	gs, vocab := graphs(16, 8)
	rng := rand.New(rand.NewSource(16))
	p := nn.NewParams()
	m := crossModel(p, 1, vocab, rng)
	g, q := cg.Build(gs[7], 1, vocab), cg.Build(gs[6], 1, vocab)
	want := append([]float64(nil), m.Infer(g, q)...)
	for i := range m.A2[0].Data.Data {
		m.A2[0].Data.Data[i] += 1000
	}
	got := m.Infer(g, q)
	for i := range got {
		if math.IsNaN(got[i]) || math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("output[%d] = %v with every key shifted by 1000, %v without", i, got[i], want[i])
		}
	}
	var pass cg.CrossPass
	pass.Forward(m, g, q)
	pass.Backward(randn(rng, m.Cfg.CrossDim()))
	sum := 0.0
	for _, v := range p.All() {
		if v.Grad == nil {
			continue
		}
		for _, d := range v.Grad.Data {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				t.Fatalf("gradient %v with every key shifted by 1000", v.Grad.Data)
			}
		}
	}
	for _, d := range m.A2[0].Grad.Data {
		sum += d
	}
	if math.Abs(sum) > 1e-9 {
		t.Fatalf("a2's gradient sums to %v along a uniform shift, want 0", sum)
	}
}

// TestConstGetsNoGrad: what no rule reads gets no gradient. No forward
// reads a1 (the softmax cancels its term), so a backward leaves its
// gradient nil and Adam leaves it as it was while it moves the rest; and
// an MLP backward asked for no input gradient leaves the input alone.
func TestConstGetsNoGrad(t *testing.T) {
	gs, vocab := graphs(19, 8)
	rng := rand.New(rand.NewSource(19))
	p := nn.NewParams()
	m := crossModel(p, 2, vocab, rng)
	mlp := nn.NewMLP(p, "mlp", []int{3, 4, 2}, rng)
	var pass cg.CrossPass
	pass.Forward(m, cg.Build(gs[2], 2, vocab), cg.Build(gs[3], 2, vocab))
	pass.Backward(randn(rng, m.Cfg.CrossDim()))
	r := newMLPRun(mlp)
	x := randn(rng, 3)
	x0 := append([]float64(nil), x...)
	mlp.Forward(r.acts, x)
	mlp.Backward(x, r.acts, randn(rng, 2), nil, r.buf)
	for i := range x {
		if x[i] != x0[i] {
			t.Fatalf("input[%d] moved from %v to %v", i, x0[i], x[i])
		}
	}
	before := map[string][]float64{}
	for _, name := range p.Names() {
		v := p.Get(name)
		if reads := !strings.HasPrefix(name, "x.a1_"); (v.Grad != nil) != reads {
			t.Fatalf("%s: gradient %v", name, v.Grad)
		}
		before[name] = slices.Clone(v.Data.Data)
	}
	nn.NewAdam(p, 0.01).Step()
	for _, name := range p.Names() {
		moved := !slices.Equal(p.Get(name).Data.Data, before[name])
		if moved != !strings.HasPrefix(name, "x.a1_") {
			t.Fatalf("%s: moved by Adam = %v", name, moved)
		}
	}
}

// passRun is one forward and backward of a cross pass and a GIN pass on
// a pair.
func passRun(p *nn.Params, cross *cg.CrossModel, gin *cg.GINModel, cp *cg.CrossPass, gp *cg.GINPass, g, q *cg.Compressed, dOut []float64) ([]float64, [][]float64) {
	p.ZeroGrad()
	out := append([]float64(nil), cp.Forward(cross, g, q)...)
	out = append(out, gp.Forward(gin, g)...)
	cp.Backward(dOut)
	gp.Backward(dOut[:gin.Cfg.Dim])
	return out, grads(p)
}

// TestResetLeavesNoStaleFloat: passes reuse their memory from one example
// to the next. One pair through a fresh cross pass and GIN pass, and
// through passes that have already run a larger and a smaller pair, must
// give the same bits, outputs and gradients: no rule reads a float it did
// not write for this example.
func TestResetLeavesNoStaleFloat(t *testing.T) {
	gs, vocab := graphs(23, 8)
	rng := rand.New(rand.NewSource(23))
	p := nn.NewParams()
	cross := crossModel(p, 2, vocab, rng)
	gin := cg.NewGINModel(p, "gin", cg.Config{Layers: 2, Dim: 3, Vocab: vocab}, rng)
	dOut := randn(rng, cross.Cfg.CrossDim())
	pair := func(i, j int) (*cg.Compressed, *cg.Compressed) {
		return cg.Build(gs[i], 2, vocab), cg.Build(gs[j], 2, vocab)
	}
	g, q := pair(3, 4)
	var freshC cg.CrossPass
	var freshG cg.GINPass
	wantOut, wantGrads := passRun(p, cross, gin, &freshC, &freshG, g, q, dOut)

	var cp cg.CrossPass
	var gp cg.GINPass
	lg, lq := pair(7, 6)
	passRun(p, cross, gin, &cp, &gp, lg, lq, dOut)
	sg, sq := pair(0, 1)
	passRun(p, cross, gin, &cp, &gp, sg, sq, dOut)
	gotOut, gotGrads := passRun(p, cross, gin, &cp, &gp, g, q, dOut)
	for i, want := range wantOut {
		if math.Float64bits(gotOut[i]) != math.Float64bits(want) {
			t.Fatalf("output[%d] = %v on reused passes, %v on fresh ones", i, gotOut[i], want)
		}
	}
	for k := range wantGrads {
		if len(wantGrads[k]) == 0 && !strings.HasPrefix(p.Names()[k], "x.a1_") {
			t.Fatalf("%s received no gradient", p.Names()[k])
		}
		for i, want := range wantGrads[k] {
			if math.Float64bits(gotGrads[k][i]) != math.Float64bits(want) {
				t.Fatalf("%s[%d]: gradient %v on reused passes, %v on fresh ones", p.Names()[k], i, gotGrads[k][i], want)
			}
		}
	}
}

// TestTapeStepAllocs pins what recording a forward in memory the passes
// own is for: once a step has seen an example of a size, recording and
// differentiating another — cross pass, head features, MLP head, loss and
// every backward — allocates nothing.
func TestTapeStepAllocs(t *testing.T) {
	gs, vocab := graphs(24, 8)
	m := newNHModel(vocab, rand.New(rand.NewSource(24)))
	s := newNHStep(m)
	cs := make([]*cg.Compressed, len(gs))
	for i, g := range gs {
		cs[i] = cg.Build(g, 2, vocab)
	}
	step := func() {
		for i := 0; i+1 < len(cs); i++ {
			s.step(cs[i], cs[i+1], float64(i%2))
		}
	}
	step()
	runtime.GC()
	if n := testing.AllocsPerRun(10, step); n != 0 {
		t.Fatalf("%v allocations per warm sweep of steps, want 0", n)
	}
}

// denseLayer is one layer of the forward on dense matrices: the one-hot
// rows of level 0 as a matrix of 0s and 1s, every aggregation term a
// whole row, the message added to each row, then one plain product by W and
// ReLU. It returns the pre-activation rows and the layer's output.
func denseLayer(prev *mat.Matrix, mu []float64, lv cg.Level, w *mat.Matrix) (pre, out *mat.Matrix) {
	pre = mat.New(len(lv.In), prev.Cols)
	for i, terms := range lv.In {
		row := pre.Row(i)
		for _, e := range terms {
			for k, v := range prev.Row(e.Row) {
				row[k] += e.W * v
			}
		}
		for k, v := range mu {
			row[k] += v
		}
	}
	out = denseProduct(pre, w)
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		}
	}
	return pre, out
}

// oneHots is the dense matrix of level 0's one-hot feature rows.
func oneHots(c *cg.Compressed, vocab int) *mat.Matrix {
	h := mat.New(len(c.Levels[0].Feature), vocab)
	for i, f := range c.Levels[0].Feature {
		h.Set(i, f, 1)
	}
	return h
}

// denseMean is the readout on a dense matrix.
func denseMean(h *mat.Matrix, sizes []float64) []float64 {
	out := make([]float64, h.Cols)
	total := 0.0
	for i, s := range sizes {
		total += s
		for k, v := range h.Row(i) {
			out[k] += s * v
		}
	}
	for k := range out {
		out[k] /= total
	}
	return out
}

// denseMessage is the cross message over the other side's dense rows:
// keys other·a2, softmax of key plus log size, the weighted sum of rows.
func denseMessage(other, a2 *mat.Matrix, sizes []float64) []float64 {
	key := denseProduct(other, a2)
	scores := make([]float64, key.Rows)
	top := math.Inf(-1)
	for j := range scores {
		scores[j] = key.At(j, 0) + math.Log(sizes[j])
		top = math.Max(top, scores[j])
	}
	sum := 0.0
	for j, s := range scores {
		scores[j] = math.Exp(s - top)
		sum += scores[j]
	}
	mu := make([]float64, other.Cols)
	for j, e := range scores {
		if alpha := e / sum; alpha != 0 {
			for k, v := range other.Row(j) {
				mu[k] += alpha * v
			}
		}
	}
	return mu
}

// TestOneHotMatchesDense holds the kernel's one-hot level to the same
// arithmetic on the dense one-hot matrix, with ==: the kernel aggregates
// level 0 by feature index, skips the zero entries in the product by W,
// and takes keys and messages by look-up, and none of that may move a
// bit — of the GIN's embedding and its W gradient, or of the cross
// model's output. W holds a negative zero, the one value a look-up would
// copy where a sum from +0 gives +0.
func TestOneHotMatchesDense(t *testing.T) {
	gs, vocab := graphs(22, 8)
	rng := rand.New(rand.NewSource(22))
	p := nn.NewParams()
	gin := cg.NewGINModel(p, "gin", cg.Config{Layers: 1, Dim: 3, Vocab: vocab}, rng)
	cross := crossModel(p, 1, vocab, rng)
	for _, w := range []*nn.Param{gin.W[0], cross.W[0]} {
		w.Data.Set(vocab.Index("C"), 1, math.Copysign(0, -1))
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v on the one-hots, %v on the dense matrix", what, i, got[i], want[i])
			}
		}
	}
	var gp cg.GINPass
	// Compressed inputs, and raw ones, where one group's terms can share
	// a feature.
	for n := 0; n < 2*(len(gs)-1); n++ {
		build, i := cg.Build, n%(len(gs)-1)
		if n >= len(gs)-1 {
			build = cg.BuildRaw
		}
		g, q := build(gs[i], 1, vocab), build(gs[i+1], 1, vocab)
		hg, hq := oneHots(g, vocab.Size()), oneHots(q, vocab.Size())

		pre, out := denseLayer(hg, nil, g.Levels[1], gin.W[0].Data)
		same("GIN embedding", gin.Embed(g), denseMean(out, g.Levels[1].Size))

		dOut := randn(rng, gin.Cfg.Dim)
		sizes := g.Levels[1].Size
		total := 0.0
		for _, s := range sizes {
			total += s
		}
		dh := mat.New(out.Rows, out.Cols)
		for r, s := range sizes {
			for k, d := range dOut {
				if out.At(r, k) > 0 {
					dh.Set(r, k, s/total*d)
				}
			}
		}
		p.ZeroGrad()
		gp.Forward(gin, g)
		gp.Backward(dOut)
		// preᵀ·dh over ascending rows, zeros of pre skipped.
		want := make([]float64, pre.Cols*dh.Cols)
		for r := 0; r < pre.Rows; r++ {
			for c, a := range pre.Row(r) {
				if a == 0 {
					continue
				}
				for j, d := range dh.Row(r) {
					want[c*dh.Cols+j] += a * d
				}
			}
		}
		for k, v := range want {
			if got := gin.W[0].Grad.Data[k]; got != v {
				t.Fatalf("pair %d: W gradient[%d] = %v on the one-hots, %v on the dense matrix", i, k, got, v)
			}
		}

		a2, w := cross.A2[0].Data, cross.W[0].Data
		_, og := denseLayer(hg, denseMessage(hq, a2, q.Levels[0].Size), g.Levels[1], w)
		_, oq := denseLayer(hq, denseMessage(hg, a2, g.Levels[0].Size), q.Levels[1], w)
		same("cross output", cross.Infer(g, q), append(denseMean(og, g.Levels[1].Size), denseMean(oq, q.Levels[1].Size)...))
	}
}

// denseProduct returns a * b by the plain triple loop, each element
// summed from zero over ascending k.
func denseProduct(a, b *mat.Matrix) *mat.Matrix {
	out := mat.New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}
