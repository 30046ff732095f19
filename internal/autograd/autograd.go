// Package autograd implements a small reverse-mode automatic
// differentiation engine over dense matrices. It provides exactly the
// operations needed by the library's graph neural networks: linear maps,
// elementwise nonlinearities, softmax attention, concatenation, weighted
// readouts and binary cross-entropy — each with a hand-written backward
// rule verified against finite differences in the tests.
//
// Graphs are recorded on a Tape: one object per trainer that owns the
// nodes, the floats of their values and gradients and the backward
// temporaries, and is reset, not freed, between training examples.
// Parameters (Param) live outside any tape and keep their gradients across
// resets.
package autograd

import (
	"fmt"
	"math"

	"github.com/lansearch/lan/internal/mat"
)

// Value is a node in the computation graph: a matrix plus an optional
// gradient. A Value made by a Tape (an op result, a Const, a OneHot) is
// valid until that tape's next Reset; a Param is valid forever.
type Value struct {
	Data *mat.Matrix
	Grad *mat.Matrix // allocated lazily; nil until backward touches it

	requiresGrad bool
	tape         *Tape // nil for a Param
	op           opCode
	a, b         *Value // operands (b nil for unary ops)
	seen         uint64 // the Backward call that last visited this node

	// What the op's backward rule needs beyond its operands; each op uses
	// the few that apply.
	k      float64   // Scale's factor, WeightedMeanRows' total weight
	from   int       // GatherCols' first column
	idx    []int     // GatherRows' row indices
	combos [][]Lin   // LinearCombRows' terms
	w      []float64 // WeightedMeanRows' weights, the losses' targets
	hot    []int     // OneHot's feature index per row (Data.Data is nil)

	dataHdr, gradHdr mat.Matrix // the headers Data and Grad point at on a tape
}

type opCode uint8

const (
	opLeaf opCode = iota
	opMatMul
	opAdd
	opAddRowBroadcast
	opOuterSum
	opScale
	opReLU
	opSoftmaxRows
	opTranspose
	opConcatCols
	opConcatRows
	opWeightedMeanRows
	opSum
	opSumSquares
	opMul
	opGatherCols
	opGatherRows
	opLinearCombRows
	opBCEWithLogits
	opMSE
)

// Param wraps a matrix as a trainable leaf (gradients accumulate).
func Param(m *mat.Matrix) *Value {
	return &Value{Data: m, requiresGrad: true}
}

// RequiresGrad reports whether gradients flow into v.
func (v *Value) RequiresGrad() bool { return v.requiresGrad }

// grad returns v's gradient, zero-filled on first use: on the heap for a
// Param, on the tape's slab for a node.
func (v *Value) grad() *mat.Matrix {
	if v.Grad == nil {
		if v.tape == nil {
			v.Grad = mat.New(v.Data.Rows, v.Data.Cols)
		} else {
			v.gradHdr = mat.Matrix{Rows: v.Data.Rows, Cols: v.Data.Cols, Data: v.tape.zeros(v.Data.Rows * v.Data.Cols)}
			v.Grad = &v.gradHdr
		}
	}
	return v.Grad
}

// ZeroGrad clears the gradient of v.
func (v *Value) ZeroGrad() {
	if v.Grad != nil {
		v.Grad.Zero()
	}
}

// Tape records a computation graph as its ops run and differentiates it.
// It owns everything an example's forward and backward pass need — a float
// slab for values, gradients and temporaries, and the nodes themselves —
// and Reset rewinds all of it, so after the first few examples have grown
// the slab a training step allocates nothing. A Tape serves one goroutine;
// trainers running side by side each make their own.
//
// The slab grows by replacement, never by copying: a node made before a
// growth keeps its (old) backing array, so it stays valid until Reset.
type Tape struct {
	slab []float64
	off  int

	nodes []*Value // every node ever made; nodes[:used] belong to the current graph
	used  int

	order []*Value   // Backward's post-order, reused
	calls uint64     // Backward calls so far: the visit stamp
	tmp   mat.Matrix // MatMul's backward product, formed here and then added

	poison bool // tests: a rewound or fresh slab holds NaN instead of stale floats
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Reset forgets the recorded graph: every Value the tape handed out is
// invalid from here on, and its memory is reused by the ops that follow.
func (t *Tape) Reset() {
	t.off, t.used = 0, 0
	if t.poison {
		fillNaN(t.slab)
	}
}

func fillNaN(s []float64) {
	for i := range s {
		s[i] = math.NaN()
	}
}

// take hands out the next n floats of the slab, contents unspecified.
func (t *Tape) take(n int) []float64 {
	if t.off+n > len(t.slab) {
		t.slab = make([]float64, max(2*len(t.slab), t.off+n, 1<<12))
		if t.poison {
			fillNaN(t.slab)
		}
	}
	s := t.slab[t.off : t.off+n : t.off+n]
	t.off += n
	return s
}

// zeros is take with the floats cleared.
func (t *Tape) zeros(n int) []float64 {
	s := t.take(n)
	for i := range s {
		s[i] = 0
	}
	return s
}

// nodeChunk is how many nodes a growing tape allocates at once.
const nodeChunk = 64

// node returns a blank node of the current graph.
func (t *Tape) node() *Value {
	if t.used == len(t.nodes) {
		chunk := make([]Value, nodeChunk)
		for i := range chunk {
			t.nodes = append(t.nodes, &chunk[i])
		}
	}
	v := t.nodes[t.used]
	t.used++
	*v = Value{tape: t}
	return v
}

// result returns a rows x cols node computed by op from a and b (b may be
// nil), its Data on the slab with contents unspecified.
func (t *Tape) result(op opCode, rows, cols int, a, b *Value) *Value {
	v := t.node()
	v.op, v.a, v.b = op, a, b
	v.requiresGrad = a.requiresGrad || (b != nil && b.requiresGrad)
	v.dataHdr = mat.Matrix{Rows: rows, Cols: cols, Data: t.take(rows * cols)}
	v.Data = &v.dataHdr
	return v
}

// Const wraps a matrix as a non-trainable leaf. The floats are shared, not
// copied: constants are never written.
func (t *Tape) Const(m *mat.Matrix) *Value {
	v := t.node()
	v.dataHdr = *m
	v.Data = &v.dataHdr
	return v
}

// OneHot is the constant len(feat) x cols matrix whose row i is the
// one-hot of feat[i], without its floats: MatMul (on either side),
// LinearCombRows (as the source) and ConcatRows (as the upper block) read
// it as look-ups, every other op panics on it. A product with a one-hot
// operand skips the terms the dense kernel would multiply by zero; each is
// an exact +0 there, and the remaining terms keep their ascending order,
// so for finite operands the result is the dense one bit for bit.
func (t *Tape) OneHot(feat []int, cols int) *Value {
	v := t.node()
	v.hot = feat
	v.dataHdr = mat.Matrix{Rows: len(feat), Cols: cols}
	v.Data = &v.dataHdr
	return v
}

// Backward runs reverse-mode differentiation from v, which must be a 1x1
// scalar. Gradients accumulate into every reachable leaf that requires
// grad (a Param keeps summing over calls until ZeroGrad). An interior
// node's gradient is scratch of one call: it is cleared first, so a second
// Backward over a trunk shared with an earlier one adds only its own
// gradient to the leaves instead of propagating the earlier one again.
//
// Rules run in the reverse of a depth-first post-order from v (operands
// left to right), not in the reverse of recording order: which addend a
// shared node's gradient receives first decides its last bits, and this is
// the order the trained weights were pinned under.
func (t *Tape) Backward(v *Value) {
	if v.Data.Rows != 1 || v.Data.Cols != 1 {
		panic(fmt.Sprintf("autograd: Backward on non-scalar %dx%d", v.Data.Rows, v.Data.Cols))
	}
	t.calls++
	t.order = t.order[:0]
	t.visit(v)
	for _, n := range t.order {
		n.ZeroGrad()
	}
	v.grad().Data[0] = 1
	for i := len(t.order) - 1; i >= 0; i-- {
		t.order[i].backward()
	}
}

// visit appends the ops under n that gradients flow through, operands
// before results. Leaves and constant subgraphs have no rule to run.
func (t *Tape) visit(n *Value) {
	if n.op == opLeaf || !n.requiresGrad || n.seen == t.calls {
		return
	}
	n.seen = t.calls
	t.visit(n.a)
	if n.b != nil {
		t.visit(n.b)
	}
	t.order = append(t.order, n)
}

// scratch points t.tmp at rows x cols floats of its own (contents
// unspecified) and returns it.
func (t *Tape) scratch(rows, cols int) *mat.Matrix {
	n := rows * cols
	if cap(t.tmp.Data) < n {
		t.tmp.Data = make([]float64, n)
	}
	t.tmp.Rows, t.tmp.Cols, t.tmp.Data = rows, cols, t.tmp.Data[:n]
	return &t.tmp
}

// dense panics when v is a OneHot handed to an op that reads floats.
func dense(op string, vs ...*Value) {
	for _, v := range vs {
		if v.hot != nil {
			panic("autograd: " + op + " on a OneHot operand")
		}
	}
}

// MatMul returns a * b. Either operand (not both) may be a OneHot.
func (t *Tape) MatMul(a, b *Value) *Value {
	if a.Data.Cols != b.Data.Rows || (a.hot != nil && b.hot != nil) {
		panic(fmt.Sprintf("autograd: MatMul %dx%d * %dx%d", a.Data.Rows, a.Data.Cols, b.Data.Rows, b.Data.Cols))
	}
	out := t.result(opMatMul, a.Data.Rows, b.Data.Cols, a, b)
	switch {
	case a.hot != nil:
		// Row i is row a.hot[i] of b, summed from zero as the kernel does.
		for i, f := range a.hot {
			dst := out.Data.Row(i)
			for j, v := range b.Data.Row(f) {
				dst[j] = 0 + v
			}
		}
	case b.hot != nil:
		// Column b.hot[k] collects a's column k, ascending k.
		out.Data.Zero()
		for i := 0; i < a.Data.Rows; i++ {
			dst := out.Data.Row(i)
			for k, v := range a.Data.Row(i) {
				dst[b.hot[k]] += v
			}
		}
	default:
		mat.MulInto(out.Data, a.Data, b.Data)
	}
	return out
}

func (v *Value) backMatMul() {
	a, b, t := v.a, v.b, v.tape
	if a.requiresGrad { // dA = dOut * Bᵀ
		tmp := t.scratch(v.Grad.Rows, b.Data.Rows)
		if b.hot != nil {
			for i := 0; i < tmp.Rows; i++ {
				dout, row := v.Grad.Row(i), tmp.Row(i)
				for k, f := range b.hot {
					row[k] = 0 + dout[f]
				}
			}
		} else {
			mat.MulTInto(tmp, v.Grad, b.Data)
		}
		a.grad().AddInPlace(tmp)
	}
	if b.requiresGrad { // dB = Aᵀ * dOut
		tmp := t.scratch(a.Data.Cols, v.Grad.Cols)
		if a.hot != nil {
			tmp.Zero()
			for i, f := range a.hot {
				row := tmp.Row(f)
				for j, g := range v.Grad.Row(i) {
					row[j] += g
				}
			}
		} else {
			mat.TMulInto(tmp, a.Data, v.Grad)
		}
		b.grad().AddInPlace(tmp)
	}
}

// Add returns a + b (same shape).
func (t *Tape) Add(a, b *Value) *Value {
	dense("Add", a, b)
	a.Data.SameShapeOrPanic(b.Data)
	out := t.result(opAdd, a.Data.Rows, a.Data.Cols, a, b)
	for i, v := range a.Data.Data {
		out.Data.Data[i] = v + b.Data.Data[i]
	}
	return out
}

func (v *Value) backAdd() {
	if v.a.requiresGrad {
		v.a.grad().AddInPlace(v.Grad)
	}
	if v.b.requiresGrad {
		v.b.grad().AddInPlace(v.Grad)
	}
}

// AddRowBroadcast returns a + b where b is a 1xC row added to every row of
// the RxC matrix a.
func (t *Tape) AddRowBroadcast(a, b *Value) *Value {
	dense("AddRowBroadcast", a, b)
	if b.Data.Rows != 1 || b.Data.Cols != a.Data.Cols {
		panic(fmt.Sprintf("autograd: AddRowBroadcast %dx%d + %dx%d", a.Data.Rows, a.Data.Cols, b.Data.Rows, b.Data.Cols))
	}
	out := t.result(opAddRowBroadcast, a.Data.Rows, a.Data.Cols, a, b)
	brow := b.Data.Row(0)
	for i := 0; i < a.Data.Rows; i++ {
		src, dst := a.Data.Row(i), out.Data.Row(i)
		for j, v := range brow {
			dst[j] = src[j] + v
		}
	}
	return out
}

func (v *Value) backAddRowBroadcast() {
	if v.a.requiresGrad {
		v.a.grad().AddInPlace(v.Grad)
	}
	if v.b.requiresGrad {
		addRows(v.b.grad(), v.Grad)
	}
}

// OuterSum returns the RxC matrix out[i][j] = a[i][0] + b[0][j] from a
// column vector a (Rx1) and row vector b (1xC).
func (t *Tape) OuterSum(a, b *Value) *Value {
	dense("OuterSum", a, b)
	if a.Data.Cols != 1 || b.Data.Rows != 1 {
		panic(fmt.Sprintf("autograd: OuterSum wants Rx1 and 1xC, got %dx%d and %dx%d", a.Data.Rows, a.Data.Cols, b.Data.Rows, b.Data.Cols))
	}
	out := t.result(opOuterSum, a.Data.Rows, b.Data.Cols, a, b)
	for i, ai := range a.Data.Data {
		row := out.Data.Row(i)
		for j, bj := range b.Data.Data {
			row[j] = ai + bj
		}
	}
	return out
}

func (v *Value) backOuterSum() {
	if v.a.requiresGrad {
		g := v.a.grad()
		for i := range g.Data {
			s := 0.0
			for _, d := range v.Grad.Row(i) {
				s += d
			}
			g.Data[i] += s
		}
	}
	if v.b.requiresGrad {
		addRows(v.b.grad(), v.Grad)
	}
}

// addRows adds every row of src, top to bottom, to the single row of g.
func addRows(g, src *mat.Matrix) {
	for i := 0; i < src.Rows; i++ {
		for j, d := range src.Row(i) {
			g.Data[j] += d
		}
	}
}

// Scale returns s * a for a constant s.
func (t *Tape) Scale(a *Value, s float64) *Value {
	dense("Scale", a)
	out := t.result(opScale, a.Data.Rows, a.Data.Cols, a, nil)
	out.k = s
	for i, v := range a.Data.Data {
		out.Data.Data[i] = v * s
	}
	return out
}

func (v *Value) backScale() {
	v.a.grad().AddScaledInPlace(v.Grad, v.k)
}

// ReLU returns max(0, a) elementwise.
func (t *Tape) ReLU(a *Value) *Value {
	dense("ReLU", a)
	out := t.result(opReLU, a.Data.Rows, a.Data.Cols, a, nil)
	for i, v := range a.Data.Data {
		if v < 0 {
			v = 0
		}
		out.Data.Data[i] = v
	}
	return out
}

func (v *Value) backReLU() {
	g := v.a.grad()
	for i, x := range v.a.Data.Data {
		if x > 0 {
			g.Data[i] += v.Grad.Data[i]
		}
	}
}

// SoftmaxRows applies a numerically stable softmax to each row.
func (t *Tape) SoftmaxRows(a *Value) *Value {
	dense("SoftmaxRows", a)
	out := t.result(opSoftmaxRows, a.Data.Rows, a.Data.Cols, a, nil)
	for i := 0; i < a.Data.Rows; i++ {
		src := a.Data.Row(i)
		dst := out.Data.Row(i)
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
	return out
}

func (v *Value) backSoftmaxRows() {
	g := v.a.grad()
	for i := 0; i < v.Data.Rows; i++ {
		p := v.Data.Row(i)
		dout := v.Grad.Row(i)
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

// Transpose returns aᵀ.
func (t *Tape) Transpose(a *Value) *Value {
	dense("Transpose", a)
	out := t.result(opTranspose, a.Data.Cols, a.Data.Rows, a, nil)
	for i := 0; i < a.Data.Rows; i++ {
		for j, v := range a.Data.Row(i) {
			out.Data.Data[j*a.Data.Rows+i] = v
		}
	}
	return out
}

func (v *Value) backTranspose() {
	g := v.a.grad()
	for i := 0; i < g.Rows; i++ {
		grow := g.Row(i)
		for j := range grow {
			grow[j] += v.Grad.Data[j*g.Rows+i]
		}
	}
}

// ConcatCols returns [a | b] with matching row counts.
func (t *Tape) ConcatCols(a, b *Value) *Value {
	dense("ConcatCols", a, b)
	if a.Data.Rows != b.Data.Rows {
		panic(fmt.Sprintf("autograd: ConcatCols rows %d vs %d", a.Data.Rows, b.Data.Rows))
	}
	ca := a.Data.Cols
	out := t.result(opConcatCols, a.Data.Rows, ca+b.Data.Cols, a, b)
	for i := 0; i < a.Data.Rows; i++ {
		copy(out.Data.Row(i)[:ca], a.Data.Row(i))
		copy(out.Data.Row(i)[ca:], b.Data.Row(i))
	}
	return out
}

func (v *Value) backConcatCols() {
	a, b := v.a, v.b
	ca := a.Data.Cols
	for i := 0; i < v.Grad.Rows; i++ {
		row := v.Grad.Row(i)
		if a.requiresGrad {
			g := a.grad().Row(i)
			for j := range g {
				g[j] += row[j]
			}
		}
		if b.requiresGrad {
			g := b.grad().Row(i)
			for j := range g {
				g[j] += row[ca+j]
			}
		}
	}
}

// ConcatRows stacks a on top of b (matching column counts). a may be a
// OneHot.
func (t *Tape) ConcatRows(a, b *Value) *Value {
	dense("ConcatRows", b)
	if a.Data.Cols != b.Data.Cols {
		panic(fmt.Sprintf("autograd: ConcatRows cols %d vs %d", a.Data.Cols, b.Data.Cols))
	}
	ra, cols := a.Data.Rows, a.Data.Cols
	out := t.result(opConcatRows, ra+b.Data.Rows, cols, a, b)
	top := out.Data.Data[:ra*cols]
	if a.hot != nil {
		for i := range top {
			top[i] = 0
		}
		for i, f := range a.hot {
			top[i*cols+f] = 1
		}
	} else {
		copy(top, a.Data.Data)
	}
	copy(out.Data.Data[ra*cols:], b.Data.Data)
	return out
}

func (v *Value) backConcatRows() {
	a, b := v.a, v.b
	split := a.Data.Rows * a.Data.Cols
	if a.requiresGrad {
		g := a.grad()
		for i, d := range v.Grad.Data[:split] {
			g.Data[i] += d
		}
	}
	if b.requiresGrad {
		g := b.grad()
		for i, d := range v.Grad.Data[split:] {
			g.Data[i] += d
		}
	}
}

// WeightedMeanRows returns the 1xC row (Σᵢ wᵢ·a[i,:]) / Σᵢ wᵢ for constant
// non-negative weights w, one per row of a. It is the CG readout of
// Definition 3 (weights are group sizes) and, with unit weights, the plain
// mean-pool readout. w is kept, not copied, until the tape is reset.
func (t *Tape) WeightedMeanRows(a *Value, w []float64) *Value {
	dense("WeightedMeanRows", a)
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
	out := t.result(opWeightedMeanRows, 1, a.Data.Cols, a, nil)
	out.w, out.k = w, total
	dst := out.Data.Data
	for j := range dst {
		dst[j] = 0
	}
	for i, wi := range w {
		for j, v := range a.Data.Row(i) {
			dst[j] += wi * v
		}
	}
	for j := range dst {
		dst[j] /= total
	}
	return out
}

func (v *Value) backWeightedMeanRows() {
	g := v.a.grad()
	for i, wi := range v.w {
		f := wi / v.k
		grow := g.Row(i)
		for j, d := range v.Grad.Data {
			grow[j] += f * d
		}
	}
}

// scalar returns a 1x1 node holding s.
func (t *Tape) scalar(op opCode, a *Value, s float64) *Value {
	out := t.result(op, 1, 1, a, nil)
	out.Data.Data[0] = s
	return out
}

// Sum returns the 1x1 sum of all elements of a.
func (t *Tape) Sum(a *Value) *Value {
	dense("Sum", a)
	s := 0.0
	for _, v := range a.Data.Data {
		s += v
	}
	return t.scalar(opSum, a, s)
}

func (v *Value) backSum() {
	g, d := v.a.grad(), v.Grad.Data[0]
	for i := range g.Data {
		g.Data[i] += d
	}
}

// SumSquares returns the 1x1 sum of squared elements (for L2 penalties).
func (t *Tape) SumSquares(a *Value) *Value {
	dense("SumSquares", a)
	s := 0.0
	for _, v := range a.Data.Data {
		s += v * v
	}
	return t.scalar(opSumSquares, a, s)
}

func (v *Value) backSumSquares() {
	v.a.grad().AddScaledInPlace(v.a.Data, 2*v.Grad.Data[0])
}

// Mul returns the elementwise product a ⊙ b.
func (t *Tape) Mul(a, b *Value) *Value {
	dense("Mul", a, b)
	a.Data.SameShapeOrPanic(b.Data)
	out := t.result(opMul, a.Data.Rows, a.Data.Cols, a, b)
	for i, v := range a.Data.Data {
		out.Data.Data[i] = v * b.Data.Data[i]
	}
	return out
}

func (v *Value) backMul() {
	// The conversions keep each product a rounded float64 of its own, as
	// when it was formed in a temporary matrix, on targets that would fuse
	// it with the addition.
	if v.a.requiresGrad {
		g := v.a.grad()
		for i, d := range v.Grad.Data {
			g.Data[i] += float64(d * v.b.Data.Data[i])
		}
	}
	if v.b.requiresGrad {
		g := v.b.grad()
		for i, d := range v.Grad.Data {
			g.Data[i] += float64(d * v.a.Data.Data[i])
		}
	}
}

// GatherCols returns the column slice a[:, from:to).
func (t *Tape) GatherCols(a *Value, from, to int) *Value {
	dense("GatherCols", a)
	if from < 0 || to > a.Data.Cols || from >= to {
		panic(fmt.Sprintf("autograd: GatherCols [%d, %d) of %d cols", from, to, a.Data.Cols))
	}
	out := t.result(opGatherCols, a.Data.Rows, to-from, a, nil)
	out.from = from
	for i := 0; i < a.Data.Rows; i++ {
		copy(out.Data.Row(i), a.Data.Row(i)[from:to])
	}
	return out
}

func (v *Value) backGatherCols() {
	g := v.a.grad()
	for i := 0; i < v.Grad.Rows; i++ {
		grow := g.Row(i)[v.from:]
		for j, d := range v.Grad.Row(i) {
			grow[j] += d
		}
	}
}

// GatherRows returns the matrix whose i-th row is a's row idx[i]. Rows may
// repeat; gradients scatter-add back. idx is kept, not copied, until the
// tape is reset.
func (t *Tape) GatherRows(a *Value, idx []int) *Value {
	dense("GatherRows", a)
	out := t.result(opGatherRows, len(idx), a.Data.Cols, a, nil)
	out.idx = idx
	for i, r := range idx {
		copy(out.Data.Row(i), a.Data.Row(r))
	}
	return out
}

func (v *Value) backGatherRows() {
	g := v.a.grad()
	for i, r := range v.idx {
		grow := g.Row(r)
		for j, d := range v.Grad.Row(i) {
			grow[j] += d
		}
	}
}

// Lin is one term of a row linear combination: weight W applied to source
// row Row.
type Lin struct {
	Row int
	W   float64
}

// LinearCombRows returns the matrix whose i-th row is the weighted sum
// Σ combos[i][k].W * a[combos[i][k].Row, :]. It is the sparse aggregation
// primitive behind GNN message passing on (compressed) GNN-graphs. a may
// be a OneHot; combos is kept, not copied, until the tape is reset.
func (t *Tape) LinearCombRows(a *Value, combos [][]Lin) *Value {
	out := t.result(opLinearCombRows, len(combos), a.Data.Cols, a, nil)
	out.combos = combos
	out.Data.Zero()
	for i, terms := range combos {
		dst := out.Data.Row(i)
		for _, term := range terms {
			if a.hot != nil {
				dst[a.hot[term.Row]] += term.W
				continue
			}
			for j, v := range a.Data.Row(term.Row) {
				dst[j] += term.W * v
			}
		}
	}
	return out
}

func (v *Value) backLinearCombRows() {
	g := v.a.grad()
	for i, terms := range v.combos {
		dout := v.Grad.Row(i)
		for _, term := range terms {
			grow := g.Row(term.Row)
			for j, d := range dout {
				grow[j] += term.W * d
			}
		}
	}
}

// loss returns the 1x1 node of a loss over pred and constant targets, one
// per element of pred and copied to the slab.
func (t *Tape) loss(op opCode, pred *Value, targets []float64, value float64) *Value {
	out := t.scalar(op, pred, value)
	out.w = t.take(len(targets))
	copy(out.w, targets)
	return out
}

func checkTargets(op string, pred *Value, targets []float64) {
	dense(op, pred)
	if len(targets) != len(pred.Data.Data) {
		panic(fmt.Sprintf("autograd: %s %d targets for %dx%d", op, len(targets), pred.Data.Rows, pred.Data.Cols))
	}
}

// BCEWithLogits returns the 1x1 mean binary cross-entropy between logits
// and constant targets in {0,1} (one per element, row-major), computed in
// the numerically stable form max(x,0) - x*t + log(1+exp(-|x|)).
func (t *Tape) BCEWithLogits(logits *Value, targets []float64) *Value {
	checkTargets("BCEWithLogits", logits, targets)
	loss := 0.0
	for i, x := range logits.Data.Data {
		loss += math.Max(x, 0) - x*targets[i] + math.Log1p(math.Exp(-math.Abs(x)))
	}
	return t.loss(opBCEWithLogits, logits, targets, loss/float64(len(targets)))
}

func (v *Value) backBCEWithLogits() {
	g := v.a.grad()
	scale := v.Grad.Data[0] / float64(len(v.w))
	for i, x := range v.a.Data.Data {
		s := 1 / (1 + math.Exp(-x))
		g.Data[i] += scale * (s - v.w[i])
	}
}

// MSE returns the 1x1 mean squared error between pred and constant targets
// (one per element, row-major).
func (t *Tape) MSE(pred *Value, targets []float64) *Value {
	checkTargets("MSE", pred, targets)
	loss := 0.0
	for i, x := range pred.Data.Data {
		d := x - targets[i]
		loss += d * d
	}
	return t.loss(opMSE, pred, targets, loss/float64(len(targets)))
}

func (v *Value) backMSE() {
	g := v.a.grad()
	scale := 2 * v.Grad.Data[0] / float64(len(v.w))
	for i, x := range v.a.Data.Data {
		g.Data[i] += scale * (x - v.w[i])
	}
}

// backward propagates v.Grad into its operands' gradients. Unary rules
// run only when their operand requires grad (visit skips the rest); binary
// rules check each side.
func (v *Value) backward() {
	switch v.op {
	case opMatMul:
		v.backMatMul()
	case opAdd:
		v.backAdd()
	case opAddRowBroadcast:
		v.backAddRowBroadcast()
	case opOuterSum:
		v.backOuterSum()
	case opScale:
		v.backScale()
	case opReLU:
		v.backReLU()
	case opSoftmaxRows:
		v.backSoftmaxRows()
	case opTranspose:
		v.backTranspose()
	case opConcatCols:
		v.backConcatCols()
	case opConcatRows:
		v.backConcatRows()
	case opWeightedMeanRows:
		v.backWeightedMeanRows()
	case opSum:
		v.backSum()
	case opSumSquares:
		v.backSumSquares()
	case opMul:
		v.backMul()
	case opGatherCols:
		v.backGatherCols()
	case opGatherRows:
		v.backGatherRows()
	case opLinearCombRows:
		v.backLinearCombRows()
	case opBCEWithLogits:
		v.backBCEWithLogits()
	case opMSE:
		v.backMSE()
	}
}
