package models

import (
	"fmt"
	"math"

	"github.com/lansearch/lan/internal/cg"
	"github.com/lansearch/lan/internal/mat"
)

// The reverse-mode autodiff engine the models' weights were pinned under:
// every op allocates its node, its result and a closure for its backward
// rule, Backward orders the graph with a map-based depth-first search, and
// nothing is reused. It is the oracle of TestTrainMatchesReference — the
// hand-written backward (cg/train.go, nn.MLP.Backward, the models' steps)
// must leave every model with the weights this leaves it with, compared
// with == — and it lives here because the models' forward passes
// (reference_train_test.go) are what it is run through, and test files do
// not cross packages. Gone from it are the ops no model runs
// (Sigmoid, Tanh, Sum, ConcatRows) and mat.GetScratch: the two MatMul
// temporaries are plain zero matrices, as the pool handed out.

// refValue is a node in the computation graph: a matrix plus an optional
// gradient and backward rule.
type refValue struct {
	Data *mat.Matrix
	Grad *mat.Matrix // allocated lazily; nil until backward touches it

	requiresGrad bool
	parents      []*refValue
	backward     func() // propagates v.Grad into parents' Grads
}

// refParam wraps a matrix as a trainable leaf (gradients accumulate).
func refParam(m *mat.Matrix) *refValue {
	return &refValue{Data: m, requiresGrad: true}
}

// refConst wraps a matrix as a non-trainable leaf.
func refConst(m *mat.Matrix) *refValue {
	return &refValue{Data: m}
}

func (v *refValue) grad() *mat.Matrix {
	if v.Grad == nil {
		v.Grad = mat.New(v.Data.Rows, v.Data.Cols)
	}
	return v.Grad
}

// ZeroGrad clears the gradient of v.
func (v *refValue) ZeroGrad() {
	if v.Grad != nil {
		v.Grad.Zero()
	}
}

func refNode(data *mat.Matrix, parents ...*refValue) *refValue {
	rg := false
	for _, p := range parents {
		if p.requiresGrad {
			rg = true
			break
		}
	}
	return &refValue{Data: data, requiresGrad: rg, parents: parents}
}

// refBackward runs reverse-mode differentiation from v, which must be a 1x1
// scalar. Gradients accumulate into every reachable leaf that requires
// grad (a Param keeps summing over calls until ZeroGrad). An interior
// node's gradient is scratch of one call: it is cleared first, so a second
// refBackward over a trunk shared with an earlier one adds only its own
// gradient to the leaves instead of propagating the earlier one again.
func refBackward(v *refValue) {
	if v.Data.Rows != 1 || v.Data.Cols != 1 {
		panic(fmt.Sprintf("autograd: Backward on non-scalar %dx%d", v.Data.Rows, v.Data.Cols))
	}
	order := refTopo(v)
	for _, n := range order {
		if n.backward != nil {
			n.ZeroGrad()
		}
	}
	v.grad().Set(0, 0, 1)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.backward != nil && n.requiresGrad {
			n.backward()
		}
	}
}

// topo returns the nodes reachable from v in topological order (parents
// before children).
func refTopo(v *refValue) []*refValue {
	var order []*refValue
	seen := make(map[*refValue]bool)
	var visit func(n *refValue)
	visit = func(n *refValue) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, p := range n.parents {
			visit(p)
		}
		order = append(order, n)
	}
	visit(v)
	return order
}

// refMatMul returns a * b.
func refMatMul(a, b *refValue) *refValue {
	out := refNode(refProduct(a.Data, b.Data), a, b)
	out.backward = func() {
		if a.requiresGrad {
			a.grad().AddInPlace(refMulT(out.Grad, b.Data)) // dA = dOut * Bᵀ
		}
		if b.requiresGrad {
			b.grad().AddInPlace(refTMul(a.Data, out.Grad)) // dB = Aᵀ * dOut
		}
	}
	return out
}

// refAdd returns a + b (same shape).
func refAdd(a, b *refValue) *refValue {
	data := a.Data.Clone()
	data.AddInPlace(b.Data)
	out := refNode(data, a, b)
	out.backward = func() {
		if a.requiresGrad {
			a.grad().AddInPlace(out.Grad)
		}
		if b.requiresGrad {
			b.grad().AddInPlace(out.Grad)
		}
	}
	return out
}

// refAddRowBroadcast returns a + b where b is a 1xC row added to every row of
// the RxC matrix a.
func refAddRowBroadcast(a, b *refValue) *refValue {
	if b.Data.Rows != 1 || b.Data.Cols != a.Data.Cols {
		panic(fmt.Sprintf("autograd: AddRowBroadcast %dx%d + %dx%d", a.Data.Rows, a.Data.Cols, b.Data.Rows, b.Data.Cols))
	}
	data := a.Data.Clone()
	for i := 0; i < data.Rows; i++ {
		row := data.Row(i)
		for j, v := range b.Data.Row(0) {
			row[j] += v
		}
	}
	out := refNode(data, a, b)
	out.backward = func() {
		if a.requiresGrad {
			a.grad().AddInPlace(out.Grad)
		}
		if b.requiresGrad {
			g := b.grad().Row(0)
			for i := 0; i < out.Grad.Rows; i++ {
				for j, v := range out.Grad.Row(i) {
					g[j] += v
				}
			}
		}
	}
	return out
}

// refScale returns s * a for a constant s.
func refScale(a *refValue, s float64) *refValue {
	data := a.Data.Clone()
	for i := range data.Data {
		data.Data[i] *= s
	}
	out := refNode(data, a)
	out.backward = func() {
		if a.requiresGrad {
			g := a.grad()
			for i, v := range out.Grad.Data {
				g.Data[i] += s * v
			}
		}
	}
	return out
}

// refReLU returns max(0, a) elementwise.
func refReLU(a *refValue) *refValue {
	data := a.Data.Clone()
	for i, v := range data.Data {
		if v < 0 {
			data.Data[i] = 0
		}
	}
	out := refNode(data, a)
	out.backward = func() {
		if !a.requiresGrad {
			return
		}
		g := a.grad()
		for i, v := range a.Data.Data {
			if v > 0 {
				g.Data[i] += out.Grad.Data[i]
			}
		}
	}
	return out
}

// refSoftmaxRows applies a numerically stable softmax to each row.
func refSoftmaxRows(a *refValue) *refValue {
	data := mat.New(a.Data.Rows, a.Data.Cols)
	for i := 0; i < a.Data.Rows; i++ {
		src := a.Data.Row(i)
		dst := data.Row(i)
		max := math.Inf(-1)
		for _, v := range src {
			if v > max {
				max = v
			}
		}
		sum := 0.0
		for j, v := range src {
			e := math.Exp(v - max)
			dst[j] = e
			sum += e
		}
		for j := range dst {
			dst[j] /= sum
		}
	}
	out := refNode(data, a)
	out.backward = func() {
		if !a.requiresGrad {
			return
		}
		g := a.grad()
		for i := 0; i < a.Data.Rows; i++ {
			p := out.Data.Row(i)
			dout := out.Grad.Row(i)
			dot := 0.0
			for j, pj := range p {
				dot += pj * dout[j]
			}
			grow := g.Row(i)
			for j, pj := range p {
				grow[j] += pj * (dout[j] - dot)
			}
		}
	}
	return out
}

// refTranspose returns aᵀ.
func refTranspose(a *refValue) *refValue {
	out := refNode(refTransposed(a.Data), a)
	out.backward = func() {
		if a.requiresGrad {
			a.grad().AddInPlace(refTransposed(out.Grad))
		}
	}
	return out
}

// refConcatCols returns [a | b] with matching row counts.
func refConcatCols(a, b *refValue) *refValue {
	if a.Data.Rows != b.Data.Rows {
		panic(fmt.Sprintf("autograd: ConcatCols rows %d vs %d", a.Data.Rows, b.Data.Rows))
	}
	r := a.Data.Rows
	ca, cb := a.Data.Cols, b.Data.Cols
	data := mat.New(r, ca+cb)
	for i := 0; i < r; i++ {
		copy(data.Row(i)[:ca], a.Data.Row(i))
		copy(data.Row(i)[ca:], b.Data.Row(i))
	}
	out := refNode(data, a, b)
	out.backward = func() {
		for i := 0; i < r; i++ {
			row := out.Grad.Row(i)
			if a.requiresGrad {
				g := a.grad().Row(i)
				for j := 0; j < ca; j++ {
					g[j] += row[j]
				}
			}
			if b.requiresGrad {
				g := b.grad().Row(i)
				for j := 0; j < cb; j++ {
					g[j] += row[ca+j]
				}
			}
		}
	}
	return out
}

// refWeightedMeanRows returns the 1xC row (Σᵢ wᵢ·a[i,:]) / Σᵢ wᵢ for constant
// non-negative weights w, one per row of a. It is the CG readout of
// Definition 3 (weights are group sizes) and, with unit weights, the plain
// mean-pool readout.
func refWeightedMeanRows(a *refValue, w []float64) *refValue {
	if len(w) != a.Data.Rows {
		panic(fmt.Sprintf("autograd: WeightedMeanRows %d weights for %d rows", len(w), a.Data.Rows))
	}
	total := 0.0
	for _, wi := range w {
		total += wi
	}
	if total == 0 {
		panic("autograd: WeightedMeanRows zero total weight")
	}
	data := mat.New(1, a.Data.Cols)
	for i, wi := range w {
		row := a.Data.Row(i)
		for j, v := range row {
			data.Data[j] += wi * v
		}
	}
	for j := range data.Data {
		data.Data[j] /= total
	}
	out := refNode(data, a)
	out.backward = func() {
		if !a.requiresGrad {
			return
		}
		g := a.grad()
		dout := out.Grad.Row(0)
		for i, wi := range w {
			f := wi / total
			grow := g.Row(i)
			for j, v := range dout {
				grow[j] += f * v
			}
		}
	}
	return out
}

// refSumSquares returns the 1x1 sum of squared elements (for L2 penalties).
func refSumSquares(a *refValue) *refValue {
	s := 0.0
	for _, v := range a.Data.Data {
		s += v * v
	}
	out := refNode(refScalar(s), a)
	out.backward = func() {
		if !a.requiresGrad {
			return
		}
		g, f := a.grad(), 2*out.Grad.At(0, 0)
		for i, v := range a.Data.Data {
			g.Data[i] += f * v
		}
	}
	return out
}

// refMul returns the elementwise product a ⊙ b.
func refMul(a, b *refValue) *refValue {
	out := refNode(refHadamard(a.Data, b.Data), a, b)
	out.backward = func() {
		if a.requiresGrad {
			a.grad().AddInPlace(refHadamard(out.Grad, b.Data))
		}
		if b.requiresGrad {
			b.grad().AddInPlace(refHadamard(out.Grad, a.Data))
		}
	}
	return out
}

// refGatherCols returns the column slice a[:, from:to).
func refGatherCols(a *refValue, from, to int) *refValue {
	if from < 0 || to > a.Data.Cols || from >= to {
		panic(fmt.Sprintf("autograd: GatherCols [%d, %d) of %d cols", from, to, a.Data.Cols))
	}
	w := to - from
	data := mat.New(a.Data.Rows, w)
	for i := 0; i < a.Data.Rows; i++ {
		copy(data.Row(i), a.Data.Row(i)[from:to])
	}
	out := refNode(data, a)
	out.backward = func() {
		if !a.requiresGrad {
			return
		}
		g := a.grad()
		for i := 0; i < a.Data.Rows; i++ {
			grow := g.Row(i)
			for j, v := range out.Grad.Row(i) {
				grow[from+j] += v
			}
		}
	}
	return out
}

// refLinearCombRows returns the matrix whose i-th row is the weighted sum
// Σ combos[i][k].W * a[combos[i][k].Row, :]. It is the sparse aggregation
// primitive behind GNN message passing on (compressed) GNN-graphs.
func refLinearCombRows(a *refValue, combos [][]cg.Lin) *refValue {
	data := mat.New(len(combos), a.Data.Cols)
	for i, terms := range combos {
		dst := data.Row(i)
		for _, t := range terms {
			src := a.Data.Row(t.Row)
			for j, v := range src {
				dst[j] += t.W * v
			}
		}
	}
	out := refNode(data, a)
	out.backward = func() {
		if !a.requiresGrad {
			return
		}
		g := a.grad()
		for i, terms := range combos {
			dout := out.Grad.Row(i)
			for _, t := range terms {
				grow := g.Row(t.Row)
				for j, v := range dout {
					grow[j] += t.W * v
				}
			}
		}
	}
	return out
}

// refBCEWithLogits returns the 1x1 mean binary cross-entropy between logits
// and constant targets in {0,1}, computed in the numerically stable form
// max(x,0) - x*t + log(1+exp(-|x|)).
func refBCEWithLogits(logits *refValue, targets *mat.Matrix) *refValue {
	refSameShape(logits.Data, targets)
	n := float64(len(targets.Data))
	loss := 0.0
	for i, x := range logits.Data.Data {
		t := targets.Data[i]
		loss += math.Max(x, 0) - x*t + math.Log1p(math.Exp(-math.Abs(x)))
	}
	loss /= n
	out := refNode(refScalar(loss), logits)
	out.backward = func() {
		if !logits.requiresGrad {
			return
		}
		g := logits.grad()
		scale := out.Grad.At(0, 0) / n
		for i, x := range logits.Data.Data {
			s := 1 / (1 + math.Exp(-x))
			g.Data[i] += scale * (s - targets.Data[i])
		}
	}
	return out
}

// refMSE returns the 1x1 mean squared error between pred and constant targets.
func refMSE(pred *refValue, targets *mat.Matrix) *refValue {
	refSameShape(pred.Data, targets)
	n := float64(len(targets.Data))
	loss := 0.0
	for i, x := range pred.Data.Data {
		d := x - targets.Data[i]
		loss += d * d
	}
	loss /= n
	out := refNode(refScalar(loss), pred)
	out.backward = func() {
		if !pred.requiresGrad {
			return
		}
		g := pred.grad()
		scale := 2 * out.Grad.At(0, 0) / n
		for i, x := range pred.Data.Data {
			g.Data[i] += scale * (x - targets.Data[i])
		}
	}
	return out
}

// refProduct returns a * b by the plain triple loop, each element summed
// from zero over ascending k.
func refProduct(a, b *mat.Matrix) *mat.Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("autograd: product %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
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

// refMulT returns a * bᵀ, each element a dot product summed from +0 over
// ascending k.
func refMulT(a, b *mat.Matrix) *mat.Matrix {
	out := mat.New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// refTMul returns aᵀ * b with k the outer ascending loop, skipping the
// zero entries of a.
func refTMul(a, b *mat.Matrix) *mat.Matrix {
	out := mat.New(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		for i := 0; i < a.Cols; i++ {
			x := a.At(k, i)
			if x == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Set(i, j, out.At(i, j)+x*b.At(k, j))
			}
		}
	}
	return out
}

// refTransposed returns aᵀ.
func refTransposed(a *mat.Matrix) *mat.Matrix {
	out := mat.New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Set(j, i, a.At(i, j))
		}
	}
	return out
}

// refHadamard returns the elementwise product a ⊙ b.
func refHadamard(a, b *mat.Matrix) *mat.Matrix {
	refSameShape(a, b)
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] *= v
	}
	return out
}

// refScalar returns the 1x1 matrix holding v.
func refScalar(v float64) *mat.Matrix {
	return &mat.Matrix{Rows: 1, Cols: 1, Data: []float64{v}}
}

func refSameShape(a, b *mat.Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("autograd: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
