package autograd

import (
	"math"
	"math/rand"
	"testing"

	"github.com/lansearch/lan/internal/mat"
)

// numGrad computes the central-difference gradient of f() with respect to
// the entries of leaf, where f rebuilds the graph and returns the scalar
// loss value.
func numGrad(leaf *mat.Matrix, f func() float64) *mat.Matrix {
	const h = 1e-6
	g := mat.New(leaf.Rows, leaf.Cols)
	for i := range leaf.Data {
		orig := leaf.Data[i]
		leaf.Data[i] = orig + h
		fp := f()
		leaf.Data[i] = orig - h
		fm := f()
		leaf.Data[i] = orig
		g.Data[i] = (fp - fm) / (2 * h)
	}
	return g
}

// checkGrad builds the graph with build (which must return the scalar
// loss), runs Backward, and compares each leaf's analytic gradient with
// finite differences. Every build runs on one tape, reset in between with
// its slab poisoned, so an op that reads a float it did not write this
// time turns the loss into NaN.
func checkGrad(t *testing.T, name string, leaves []*Value, build func(tp *Tape) *Value) {
	t.Helper()
	for _, leaf := range leaves {
		leaf.ZeroGrad()
	}
	tp := NewTape()
	tp.poison = true
	rebuild := func() *Value {
		tp.Reset()
		return build(tp)
	}
	tp.Backward(rebuild())
	for li, leaf := range leaves {
		if leaf.Grad == nil {
			t.Fatalf("%s: leaf %d has nil grad", name, li)
		}
		got := leaf.Grad.Clone()
		want := numGrad(leaf.Data, func() float64 { return rebuild().Data.At(0, 0) })
		if d := mat.MaxAbsDiff(got, want); !(d <= 1e-4) {
			t.Fatalf("%s: leaf %d grad mismatch %v\n got %v\nwant %v", name, li, d, got, want)
		}
	}
}

func randVal(rng *rand.Rand, r, c int) *Value {
	return Param(mat.Randn(r, c, 1, rng))
}

func TestGradMatMulChain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randVal(rng, 3, 4)
	b := randVal(rng, 4, 2)
	checkGrad(t, "matmul", []*Value{a, b}, func(tp *Tape) *Value {
		return tp.Sum(tp.MatMul(a, b))
	})
}

func TestGradAddScaleReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randVal(rng, 3, 3)
	b := randVal(rng, 3, 3)
	checkGrad(t, "add-scale-relu", []*Value{a, b}, func(tp *Tape) *Value {
		return tp.Sum(tp.ReLU(tp.Scale(tp.Add(a, b), 1.5)))
	})
}

func TestGradSoftmaxRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randVal(rng, 3, 4)
	w := mat.Randn(4, 2, 1, rng) // project so the loss depends nonuniformly
	checkGrad(t, "softmax", []*Value{a}, func(tp *Tape) *Value {
		return tp.Sum(tp.MatMul(tp.SoftmaxRows(a), tp.Const(w)))
	})
}

func TestGradConcatCols(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randVal(rng, 3, 2)
	b := randVal(rng, 3, 3)
	w := mat.Randn(5, 1, 1, rng)
	checkGrad(t, "concat", []*Value{a, b}, func(tp *Tape) *Value {
		return tp.Sum(tp.MatMul(tp.ConcatCols(a, b), tp.Const(w)))
	})
}

func TestGradAddRowBroadcast(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randVal(rng, 4, 3)
	b := randVal(rng, 1, 3)
	checkGrad(t, "rowbroadcast", []*Value{a, b}, func(tp *Tape) *Value {
		return tp.Sum(tp.ReLU(tp.AddRowBroadcast(a, b)))
	})
}

func TestGradWeightedMeanRows(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randVal(rng, 4, 3)
	w := []float64{1, 3, 2, 1}
	proj := mat.Randn(3, 1, 1, rng)
	checkGrad(t, "wmean", []*Value{a}, func(tp *Tape) *Value {
		return tp.Sum(tp.MatMul(tp.WeightedMeanRows(a, w), tp.Const(proj)))
	})
}

func TestGradMulElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randVal(rng, 3, 3)
	b := randVal(rng, 3, 3)
	checkGrad(t, "mul", []*Value{a, b}, func(tp *Tape) *Value {
		return tp.Sum(tp.Mul(a, b))
	})
}

func TestGradSumSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randVal(rng, 2, 3)
	checkGrad(t, "sumsquares", []*Value{a}, func(tp *Tape) *Value {
		return tp.SumSquares(a)
	})
}

func TestGradBCEWithLogits(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randVal(rng, 5, 1)
	targets := []float64{1, 0, 1, 1, 0}
	checkGrad(t, "bce", []*Value{a}, func(tp *Tape) *Value {
		return tp.BCEWithLogits(a, targets)
	})
}

func TestGradMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randVal(rng, 4, 1)
	targets := mat.Randn(4, 1, 1, rng).Data
	checkGrad(t, "mse", []*Value{a}, func(tp *Tape) *Value {
		return tp.MSE(a, targets)
	})
}

func TestGradDiamondReuse(t *testing.T) {
	// A value used by two paths must receive the sum of both gradients.
	rng := rand.New(rand.NewSource(14))
	a := randVal(rng, 2, 2)
	checkGrad(t, "diamond", []*Value{a}, func(tp *Tape) *Value {
		left := tp.ReLU(a)
		right := tp.Mul(a, a)
		return tp.Sum(tp.Add(left, right))
	})
}

func TestGradDeepComposite(t *testing.T) {
	// A miniature cross-graph-attention-shaped network: one attention row
	// over the query's nodes, added to every graph node.
	rng := rand.New(rand.NewSource(15))
	hg := randVal(rng, 4, 3) // "graph node embeddings"
	hq := randVal(rng, 3, 3) // "query node embeddings"
	a2 := randVal(rng, 3, 1)
	w := randVal(rng, 3, 2)
	targets := []float64{1, 0, 0, 1}
	proj := mat.Randn(2, 1, 1, rng)
	logSize := &mat.Matrix{Rows: 1, Cols: 3, Data: []float64{0, math.Log(2), 0}}
	checkGrad(t, "composite", []*Value{hg, hq, a2, w}, func(tp *Tape) *Value {
		scores := tp.Add(tp.Transpose(tp.MatMul(hq, a2)), tp.Const(logSize))
		mu := tp.MatMul(tp.SoftmaxRows(scores), hq)
		h := tp.ReLU(tp.MatMul(tp.AddRowBroadcast(hg, mu), w))
		logits := tp.MatMul(h, tp.Const(proj))
		return tp.BCEWithLogits(logits, targets)
	})
}

func TestBackwardPanicsOnNonScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on non-scalar Backward")
		}
	}()
	NewTape().Backward(Param(mat.New(2, 2)))
}

func TestConstGetsNoGrad(t *testing.T) {
	tp := NewTape()
	rng := rand.New(rand.NewSource(16))
	c := tp.Const(mat.Randn(2, 2, 1, rng))
	p := randVal(rng, 2, 2)
	loss := tp.Sum(tp.Mul(c, p))
	tp.Backward(loss)
	if c.Grad != nil {
		t.Fatalf("const received gradient")
	}
	if p.Grad == nil {
		t.Fatalf("param missing gradient")
	}
	if c.RequiresGrad() || !p.RequiresGrad() {
		t.Fatalf("RequiresGrad flags wrong")
	}
}

func TestGradAccumulatesAcrossBackwardCalls(t *testing.T) {
	tp := NewTape()
	rng := rand.New(rand.NewSource(17))
	p := randVal(rng, 2, 2)
	loss1 := tp.Sum(p)
	tp.Backward(loss1)
	first := p.Grad.Clone()
	loss2 := tp.Sum(p)
	tp.Backward(loss2)
	want := mat.Scale(first, 2)
	if mat.MaxAbsDiff(p.Grad, want) > 1e-12 {
		t.Fatalf("grads did not accumulate: %v vs %v", p.Grad, want)
	}
	p.ZeroGrad()
	if p.Grad.Norm2() != 0 {
		t.Fatalf("ZeroGrad failed")
	}
}

// TestBackwardTwiceOverSharedTrunk pins that two losses over one trunk,
// back-propagated one after the other, leave the sum of their gradients
// in the leaf: x·w → y → z → {l1, 10·l2} with x = 3 has dl1/dw = 3 and
// d(10·l2)/dw = 30. A Backward that kept the interior gradients of the
// first call would push them through y again and reach 39.
func TestBackwardTwiceOverSharedTrunk(t *testing.T) {
	tp := NewTape()
	x := tp.Const(mat.FromSlice(1, 1, []float64{3}))
	w := Param(mat.FromSlice(1, 1, []float64{1}))
	z := tp.ReLU(tp.MatMul(x, w))
	tp.Backward(tp.Sum(z))
	tp.Backward(tp.Scale(tp.Sum(z), 10))
	if got := w.Grad.At(0, 0); got != 33 {
		t.Fatalf("w.Grad = %v after two Backward calls over one trunk, want 3 + 30 = 33", got)
	}
}

func TestSoftmaxRowsNumericallyStable(t *testing.T) {
	tp := NewTape()
	a := tp.Const(mat.FromSlice(1, 3, []float64{1000, 1001, 1002}))
	out := tp.SoftmaxRows(a)
	sum := 0.0
	for _, v := range out.Data.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflow: %v", out.Data)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("softmax rows sum to %v", sum)
	}
}

func TestGradGatherCols(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a := randVal(rng, 3, 5)
	proj := mat.Randn(2, 1, 1, rng)
	checkGrad(t, "gathercols", []*Value{a}, func(tp *Tape) *Value {
		return tp.Sum(tp.MatMul(tp.GatherCols(a, 1, 3), tp.Const(proj)))
	})
}

func TestGradConcatRows(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := randVal(rng, 2, 3)
	b := randVal(rng, 4, 3)
	proj := mat.Randn(3, 1, 1, rng)
	checkGrad(t, "concatrows", []*Value{a, b}, func(tp *Tape) *Value {
		return tp.Sum(tp.MatMul(tp.ConcatRows(a, b), tp.Const(proj)))
	})
}

func TestGradLinearCombRows(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	a := randVal(rng, 4, 3)
	combos := [][]Lin{
		{{Row: 0, W: 1}, {Row: 2, W: 3}},
		{{Row: 1, W: -2}},
		{{Row: 0, W: 1}, {Row: 1, W: 1}, {Row: 3, W: 0.5}},
	}
	proj := mat.Randn(3, 1, 1, rng)
	checkGrad(t, "lincomb", []*Value{a}, func(tp *Tape) *Value {
		return tp.Sum(tp.MatMul(tp.LinearCombRows(a, combos), tp.Const(proj)))
	})
}

func TestGradTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randVal(rng, 3, 2)
	proj := mat.Randn(3, 1, 1, rng)
	checkGrad(t, "transpose", []*Value{a}, func(tp *Tape) *Value {
		return tp.Sum(tp.MatMul(tp.Transpose(a), tp.Const(proj)))
	})
}

// denseOneHot is the matrix a OneHot stands for.
func denseOneHot(feat []int, cols int) *mat.Matrix {
	m := mat.New(len(feat), cols)
	for i, f := range feat {
		m.Set(i, f, 1)
	}
	return m
}

// TestOneHotMatchesDense holds every op that accepts a OneHot to the
// result and the gradients of the same op on the dense one-hot matrix,
// with ==: skipping the zero terms must not move a bit. The weights hold a
// negative zero, the one value a bare look-up would copy where the dense
// sum from +0 gives +0.
func TestOneHotMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	feat := []int{2, 0, 2, 4, 1}
	const vocab = 5
	w := randVal(rng, vocab, 3)
	w.Data.Set(2, 1, math.Copysign(0, -1))
	s := randVal(rng, 4, len(feat)) // left operand of a product with the one-hot on the right
	combos := [][]Lin{{{Row: 0, W: 1}, {Row: 3, W: 2}}, {{Row: 2, W: -1}}, {{Row: 1, W: 1}, {Row: 4, W: 1}, {Row: 0, W: 0.5}}}
	bottom := mat.Randn(2, vocab, 1, rng)
	proj := mat.Randn(vocab, 1, 1, rng)

	run := func(hot bool) (vals [][]float64, grads []*mat.Matrix) {
		tp := NewTape()
		w.Grad, s.Grad = nil, nil
		var h *Value
		if hot {
			h = tp.OneHot(feat, vocab)
		} else {
			h = tp.Const(denseOneHot(feat, vocab))
		}
		left := tp.MatMul(h, w)                  // 5x3
		right := tp.MatMul(tp.SoftmaxRows(s), h) // 4x5
		comb := tp.MatMul(tp.LinearCombRows(h, combos), w)
		stack := tp.MatMul(tp.ConcatRows(h, tp.Const(bottom)), w)
		loss := tp.Add(tp.Add(tp.SumSquares(left), tp.SumSquares(tp.MatMul(right, tp.Const(proj)))),
			tp.Add(tp.SumSquares(comb), tp.SumSquares(stack)))
		tp.Backward(loss)
		for _, v := range []*Value{left, right, comb, stack, loss} {
			vals = append(vals, append([]float64(nil), v.Data.Data...))
		}
		return vals, []*mat.Matrix{w.Grad, s.Grad}
	}
	wantVals, wantGrads := run(false)
	gotVals, gotGrads := run(true)
	for i := range wantVals {
		for j, want := range wantVals[i] {
			if got := gotVals[i][j]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("value %d[%d] = %v on the one-hot, %v on the dense matrix", i, j, got, want)
			}
		}
	}
	for i := range wantGrads {
		for j, want := range wantGrads[i].Data {
			if got := gotGrads[i].Data[j]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("gradient %d[%d] = %v on the one-hot, %v on the dense matrix", i, j, got, want)
			}
		}
	}
}

// everyOp records a graph through every op of the package over the given
// parameters, sized by n, and returns its scalar loss.
func everyOp(tp *Tape, n int, w1, w2, a1 *Value, rng *rand.Rand) *Value {
	feat := make([]int, n)
	sizes := make([]float64, n)
	combos := make([][]Lin, n)
	for i := range feat {
		feat[i], sizes[i] = rng.Intn(w1.Data.Rows), float64(1+rng.Intn(3))
		combos[i] = []Lin{{Row: rng.Intn(n), W: 1}, {Row: rng.Intn(n), W: 0.5}}
	}
	hot := tp.OneHot(feat, w1.Data.Rows)
	h := tp.ReLU(tp.MatMul(tp.LinearCombRows(hot, combos), w1)) // n x d
	key := tp.Transpose(tp.MatMul(h, a1))                       // 1 x n
	scores := tp.Add(key, tp.Const(&mat.Matrix{Rows: 1, Cols: n, Data: sizes}))
	mu := tp.MatMul(tp.SoftmaxRows(scores), h) // 1 x d
	h = tp.ReLU(tp.MatMul(tp.AddRowBroadcast(tp.LinearCombRows(h, combos), mu), w2))
	h = tp.ConcatRows(h, tp.Scale(h, -0.5))
	out := tp.WeightedMeanRows(h, append(sizes, sizes...)) // 1 x d
	d := out.Data.Cols
	half := tp.GatherCols(out, 0, d/2)
	feats := tp.ConcatCols(out, tp.Mul(half, half))
	targets := make([]float64, feats.Data.Cols)
	targets[0] = 1
	return tp.Add(tp.Add(tp.BCEWithLogits(feats, targets), tp.MSE(feats, targets)), tp.Add(tp.Sum(feats), tp.SumSquares(feats)))
}

// TestResetLeavesNoStaleFloat runs one graph through every op on a fresh
// tape and on a tape that has already recorded a larger and a smaller
// graph, its slab filled with NaN at every Reset: loss and gradients must
// be the same bits, so no op reads a float it has not written since the
// reset, and none depends on fresh memory being zero.
func TestResetLeavesNoStaleFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	w1, w2, a1 := randVal(rng, 6, 4), randVal(rng, 4, 4), randVal(rng, 4, 1)
	params := []*Value{w1, w2, a1}
	run := func(tp *Tape, n int) (float64, []*mat.Matrix) {
		tp.Reset()
		var grads []*mat.Matrix
		for _, p := range params {
			p.ZeroGrad()
		}
		loss := everyOp(tp, n, w1, w2, a1, rand.New(rand.NewSource(int64(n))))
		tp.Backward(loss)
		for _, p := range params {
			grads = append(grads, p.Grad.Clone())
		}
		return loss.Data.At(0, 0), grads
	}
	wantLoss, wantGrads := run(NewTape(), 7)

	reused := NewTape()
	reused.poison = true
	run(reused, 19)
	run(reused, 3)
	gotLoss, gotGrads := run(reused, 7)
	if math.IsNaN(wantLoss) || gotLoss != wantLoss {
		t.Fatalf("loss %v on the reused tape, %v on a fresh one", gotLoss, wantLoss)
	}
	for k := range wantGrads {
		for i, want := range wantGrads[k].Data {
			if got := gotGrads[k].Data[i]; got != want {
				t.Fatalf("parameter %d[%d]: gradient %v on the reused tape, %v on a fresh one", k, i, got, want)
			}
		}
	}
	if reused.used == 0 || len(reused.slab) == 0 {
		t.Fatal("the reused tape recorded nothing")
	}
}

// TestTapeStepAllocs pins what the tape is for: once it has seen an
// example of a size, recording and differentiating another allocates
// nothing.
func TestTapeStepAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	w1, w2, a1 := randVal(rng, 6, 4), randVal(rng, 4, 4), randVal(rng, 4, 1)
	tp := NewTape()
	feat := []int{1, 0, 5, 2}
	combos := [][]Lin{{{Row: 0, W: 1}}, {{Row: 1, W: 1}, {Row: 3, W: 2}}, {{Row: 2, W: 1}}}
	step := func() {
		tp.Reset()
		h := tp.ReLU(tp.MatMul(tp.LinearCombRows(tp.OneHot(feat, 6), combos), w1))
		h = tp.ReLU(tp.MatMul(tp.Add(h, tp.Scale(h, 2)), w2))
		tp.Backward(tp.BCEWithLogits(tp.MatMul(h, a1), []float64{1, 0, 1}))
	}
	step()
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Fatalf("%v allocations per warm step, want 0", n)
	}
}
