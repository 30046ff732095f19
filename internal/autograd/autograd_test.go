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
// finite differences.
func checkGrad(t *testing.T, name string, leaves []*Value, build func() *Value) {
	t.Helper()
	for _, leaf := range leaves {
		leaf.ZeroGrad()
	}
	loss := build()
	Backward(loss)
	for li, leaf := range leaves {
		want := numGrad(leaf.Data, func() float64 { return build().Data.At(0, 0) })
		if leaf.Grad == nil {
			t.Fatalf("%s: leaf %d has nil grad", name, li)
		}
		if d := mat.MaxAbsDiff(leaf.Grad, want); d > 1e-4 {
			t.Fatalf("%s: leaf %d grad mismatch %v\n got %v\nwant %v", name, li, d, leaf.Grad, want)
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
	checkGrad(t, "matmul", []*Value{a, b}, func() *Value {
		return Sum(MatMul(a, b))
	})
}

func TestGradAddScaleReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randVal(rng, 3, 3)
	b := randVal(rng, 3, 3)
	checkGrad(t, "add-scale-relu", []*Value{a, b}, func() *Value {
		return Sum(ReLU(Scale(Add(a, b), 1.5)))
	})
}

func TestGradSigmoidTanh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randVal(rng, 2, 5)
	checkGrad(t, "sigmoid", []*Value{a}, func() *Value {
		return Sum(Sigmoid(a))
	})
	checkGrad(t, "tanh", []*Value{a}, func() *Value {
		return Sum(Tanh(a))
	})
}

func TestGradSoftmaxRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randVal(rng, 3, 4)
	w := mat.Randn(4, 2, 1, rng) // project so the loss depends nonuniformly
	checkGrad(t, "softmax", []*Value{a}, func() *Value {
		return Sum(MatMul(SoftmaxRows(a), Const(w)))
	})
}

func TestGradConcatCols(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randVal(rng, 3, 2)
	b := randVal(rng, 3, 3)
	w := mat.Randn(5, 1, 1, rng)
	checkGrad(t, "concat", []*Value{a, b}, func() *Value {
		return Sum(MatMul(ConcatCols(a, b), Const(w)))
	})
}

func TestGradOuterSum(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randVal(rng, 4, 1)
	b := randVal(rng, 1, 3)
	w := mat.Randn(3, 1, 1, rng)
	checkGrad(t, "outersum", []*Value{a, b}, func() *Value {
		return Sum(MatMul(SoftmaxRows(OuterSum(a, b)), Const(w)))
	})
}

func TestGradAddRowBroadcast(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randVal(rng, 4, 3)
	b := randVal(rng, 1, 3)
	checkGrad(t, "rowbroadcast", []*Value{a, b}, func() *Value {
		return Sum(ReLU(AddRowBroadcast(a, b)))
	})
}

func TestGradWeightedMeanRows(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randVal(rng, 4, 3)
	w := []float64{1, 3, 2, 1}
	proj := mat.Randn(3, 1, 1, rng)
	checkGrad(t, "wmean", []*Value{a}, func() *Value {
		return Sum(MatMul(WeightedMeanRows(a, w), Const(proj)))
	})
}

func TestGradGatherRows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randVal(rng, 4, 3)
	idx := []int{2, 0, 2, 1} // repeated row: gradients must accumulate
	proj := mat.Randn(3, 1, 1, rng)
	checkGrad(t, "gather", []*Value{a}, func() *Value {
		return Sum(MatMul(GatherRows(a, idx), Const(proj)))
	})
}

func TestGradMulElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randVal(rng, 3, 3)
	b := randVal(rng, 3, 3)
	checkGrad(t, "mul", []*Value{a, b}, func() *Value {
		return Sum(Mul(a, b))
	})
}

func TestGradSumSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randVal(rng, 2, 3)
	checkGrad(t, "sumsquares", []*Value{a}, func() *Value {
		return SumSquares(a)
	})
}

func TestGradBCEWithLogits(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randVal(rng, 5, 1)
	targets := mat.FromSlice(5, 1, []float64{1, 0, 1, 1, 0})
	checkGrad(t, "bce", []*Value{a}, func() *Value {
		return BCEWithLogits(a, targets)
	})
}

func TestGradMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randVal(rng, 4, 1)
	targets := mat.Randn(4, 1, 1, rng)
	checkGrad(t, "mse", []*Value{a}, func() *Value {
		return MSE(a, targets)
	})
}

func TestGradDiamondReuse(t *testing.T) {
	// A value used by two paths must receive the sum of both gradients.
	rng := rand.New(rand.NewSource(14))
	a := randVal(rng, 2, 2)
	checkGrad(t, "diamond", []*Value{a}, func() *Value {
		left := ReLU(a)
		right := Sigmoid(a)
		return Sum(Add(left, right))
	})
}

func TestGradDeepComposite(t *testing.T) {
	// A miniature cross-graph-attention-shaped network.
	rng := rand.New(rand.NewSource(15))
	hg := randVal(rng, 4, 3) // "graph node embeddings"
	hq := randVal(rng, 3, 3) // "query node embeddings"
	a1 := randVal(rng, 3, 1)
	a2 := randVal(rng, 3, 1)
	w := randVal(rng, 3, 2)
	targets := mat.FromSlice(4, 1, []float64{1, 0, 0, 1})
	proj := mat.Randn(2, 1, 1, rng)
	checkGrad(t, "composite", []*Value{hg, hq, a1, a2, w}, func() *Value {
		scores := OuterSum(MatMul(hg, a1), Transpose(MatMul(hq, a2)))
		alpha := SoftmaxRows(scores)
		mu := MatMul(alpha, hq)
		h := ReLU(MatMul(Add(hg, mu), w))
		logits := MatMul(h, Const(proj))
		return BCEWithLogits(logits, targets)
	})
}

func TestBackwardPanicsOnNonScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on non-scalar Backward")
		}
	}()
	Backward(Param(mat.New(2, 2)))
}

func TestConstGetsNoGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	c := Const(mat.Randn(2, 2, 1, rng))
	p := randVal(rng, 2, 2)
	loss := Sum(Mul(c, p))
	Backward(loss)
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
	rng := rand.New(rand.NewSource(17))
	p := randVal(rng, 2, 2)
	loss1 := Sum(p)
	Backward(loss1)
	first := p.Grad.Clone()
	loss2 := Sum(p)
	Backward(loss2)
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
	x := Const(mat.FromSlice(1, 1, []float64{3}))
	w := Param(mat.FromSlice(1, 1, []float64{1}))
	z := ReLU(MatMul(x, w))
	Backward(Sum(z))
	Backward(Scale(Sum(z), 10))
	if got := w.Grad.At(0, 0); got != 33 {
		t.Fatalf("w.Grad = %v after two Backward calls over one trunk, want 3 + 30 = 33", got)
	}
}

func TestSoftmaxRowsNumericallyStable(t *testing.T) {
	a := Const(mat.FromSlice(1, 3, []float64{1000, 1001, 1002}))
	out := SoftmaxRows(a)
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
	checkGrad(t, "gathercols", []*Value{a}, func() *Value {
		return Sum(MatMul(GatherCols(a, 1, 3), Const(proj)))
	})
}

func TestGradConcatRows(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := randVal(rng, 2, 3)
	b := randVal(rng, 4, 3)
	proj := mat.Randn(3, 1, 1, rng)
	checkGrad(t, "concatrows", []*Value{a, b}, func() *Value {
		return Sum(MatMul(ConcatRows(a, b), Const(proj)))
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
	checkGrad(t, "lincomb", []*Value{a}, func() *Value {
		return Sum(MatMul(LinearCombRows(a, combos), Const(proj)))
	})
}

func TestGradTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randVal(rng, 3, 2)
	proj := mat.Randn(3, 1, 1, rng)
	checkGrad(t, "transpose", []*Value{a}, func() *Value {
		return Sum(MatMul(Transpose(a), Const(proj)))
	})
}
