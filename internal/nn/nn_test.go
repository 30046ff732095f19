package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/lansearch/lan/internal/autograd"
	"github.com/lansearch/lan/internal/mat"
)

func TestParamsRegistry(t *testing.T) {
	p := NewParams()
	a := p.Add("a", mat.New(2, 3))
	if p.Get("a") != a || p.Get("b") != nil {
		t.Fatalf("Get broken")
	}
	p.Add("b", mat.New(1, 1))
	if got := p.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Names = %v", got)
	}
	if p.Count() != 7 {
		t.Fatalf("Count = %d; want 7", p.Count())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	p.Add("a", mat.New(1, 1))
}

func TestParamsSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	build := func() *Params {
		p := NewParams()
		NewLinear(p, "lin", 3, 2, rng)
		NewMLP(p, "mlp", []int{4, 8, 1}, rng)
		return p
	}
	p1 := build()
	var buf bytes.Buffer
	if err := p1.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	p2 := build() // different random init
	if err := p2.Load(&buf); err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, n := range p1.Names() {
		if mat.MaxAbsDiff(p1.Get(n).Data, p2.Get(n).Data) != 0 {
			t.Fatalf("parameter %q not restored", n)
		}
	}
}

func TestParamsLoadErrors(t *testing.T) {
	p := NewParams()
	p.Add("x", mat.New(2, 2))
	// Unknown name.
	if err := p.Load(bytes.NewBufferString(`[{"name":"y","rows":1,"cols":1,"data":[0]}]`)); err == nil {
		t.Fatal("no error for unknown parameter")
	}
	// Shape mismatch.
	if err := p.Load(bytes.NewBufferString(`[{"name":"x","rows":1,"cols":1,"data":[0]}]`)); err == nil {
		t.Fatal("no error for shape mismatch")
	}
	// Bad JSON.
	if err := p.Load(bytes.NewBufferString(`{`)); err == nil {
		t.Fatal("no error for bad JSON")
	}
}

func TestLinearShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewParams()
	l := NewLinear(p, "l", 4, 3, rng)
	tape := autograd.NewTape()
	y := l.Apply(tape, tape.Const(mat.Randn(5, 4, 1, rng)))
	if y.Data.Rows != 5 || y.Data.Cols != 3 {
		t.Fatalf("Linear output %dx%d; want 5x3", y.Data.Rows, y.Data.Cols)
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewParams()
	m := NewMLP(p, "xor", []int{2, 8, 1}, rng)
	x := mat.FromSlice(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	y := mat.FromSlice(4, 1, []float64{0, 1, 1, 0})
	opt := NewAdam(p, 0.05)
	tape := autograd.NewTape()
	var loss float64
	for epoch := 0; epoch < 400; epoch++ {
		p.ZeroGrad()
		tape.Reset()
		logits := m.Apply(tape, tape.Const(x))
		l := tape.BCEWithLogits(logits, y.Data)
		tape.Backward(l)
		opt.Step()
		loss = l.Data.At(0, 0)
	}
	if loss > 0.1 {
		t.Fatalf("XOR did not converge: loss %v", loss)
	}
	// Predictions on the training set must be correct.
	logits := m.Apply(tape, tape.Const(x))
	for i := 0; i < 4; i++ {
		pred := logits.Data.At(i, 0) > 0
		want := y.At(i, 0) > 0.5
		if pred != want {
			t.Fatalf("XOR row %d misclassified (logit %v)", i, logits.Data.At(i, 0))
		}
	}
}

func TestMLPRegressionWithMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewParams()
	m := NewMLP(p, "reg", []int{1, 16, 1}, rng)
	// Fit y = x^2 on [-1, 1].
	n := 32
	x := mat.New(n, 1)
	y := mat.New(n, 1)
	for i := 0; i < n; i++ {
		xv := -1 + 2*float64(i)/float64(n-1)
		x.Set(i, 0, xv)
		y.Set(i, 0, xv*xv)
	}
	opt := NewAdam(p, 0.01)
	tape := autograd.NewTape()
	var loss float64
	for epoch := 0; epoch < 600; epoch++ {
		p.ZeroGrad()
		tape.Reset()
		pred := m.Apply(tape, tape.Const(x))
		l := tape.MSE(pred, y.Data)
		tape.Backward(l)
		opt.Step()
		loss = l.Data.At(0, 0)
	}
	if loss > 0.01 {
		t.Fatalf("regression did not converge: MSE %v", loss)
	}
}

// inferWidths are the input widths the identity tests run: below, at and
// above the four rows accumulate takes per pass (so its scalar tail sees 0
// to 3 rows), and the 24- and 48-wide inputs of M_rk's heads at Dim 8 and
// 16.
var inferWidths = []int{1, 3, 4, 5, 8, 24, 48}

var negZero = math.Copysign(0, -1)

func TestMLPInferMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, in := range inferWidths {
		m := NewMLP(NewParams(), "mlp", []int{in, 8, 3, 1}, rng)
		if m.Width() != 8 {
			t.Fatalf("in %d: Width = %d; want 8", in, m.Width())
		}
		buf := make([]float64, 2*m.Width())
		for trial := 0; trial < 10; trial++ {
			x := mat.Randn(1, in, 1, rng)
			tape := autograd.NewTape()
			want := m.Apply(tape, tape.Const(x)).Data
			got := m.Infer(x.Data, buf)
			if len(got) != 1 || got[0] != want.At(0, 0) {
				t.Fatalf("in %d: Infer = %v; Apply = %v (must be bit-identical)", in, got, want.Data)
			}
		}
		x := mat.Randn(1, in, 1, rng).Data
		if n := testing.AllocsPerRun(50, func() { m.Infer(x, buf) }); n != 0 {
			t.Fatalf("in %d: Infer allocates %v objects per call", in, n)
		}
	}
}

// checkSplit holds m, at every column c its input can be split at, to
// InferFrom(InferPrefix(x[:c]), x[c:]) == Infer(x) == Apply(Const(x)), bit
// pattern for bit pattern (so -0 does not pass for +0).
func checkSplit(t *testing.T, m *MLP, x []float64) {
	t.Helper()
	tape := autograd.NewTape()
	want := m.Apply(tape, tape.Const(mat.FromSlice(1, len(x), append([]float64(nil), x...)))).Data.Data
	buf := make([]float64, 2*m.Width())
	prefix := make([]float64, m.Layers[0].W.Data.Cols)
	same := func(got []float64) bool {
		if len(got) != len(want) {
			return false
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				return false
			}
		}
		return true
	}
	if got := m.Infer(x, buf); !same(got) {
		t.Fatalf("in %d, %d layers: Infer = %v; Apply = %v", len(x), len(m.Layers), got, want)
	}
	for c := 0; c <= len(x); c++ {
		m.InferPrefix(prefix, x[:c])
		if got := m.InferFrom(prefix, x[c:], buf); !same(got) {
			t.Fatalf("in %d, %d layers, split at %d: InferFrom = %v; Apply = %v", len(x), len(m.Layers), c, got, want)
		}
	}
}

// TestMLPInferSplitMatchesInfer: the split is the whole, on shapes M_rk's
// fixtures do not reach — every split column of every width, a one-layer
// MLP (no ReLU after the resumed layer, three outputs) and a three-layer
// one, inputs with +0, -0 and negatives among them.
func TestMLPInferSplitMatchesInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, in := range inferWidths {
		for _, sizes := range [][]int{{in, 3}, {in, 8, 3, 1}} {
			m := NewMLP(NewParams(), "mlp", sizes, rng)
			for trial := 0; trial < 6; trial++ {
				x := mat.Randn(1, in, 1, rng).Data
				for k := range x {
					switch (k + trial) % 5 {
					case 0:
						x[k] = 0
					case 1:
						x[k] = negZero
					}
				}
				if trial == 0 {
					for k := range x {
						x[k] = negZero // an all -0 input: every product is a signed zero
					}
				}
				checkSplit(t, m, x)
			}
		}
	}
	m := NewMLP(NewParams(), "mlp", []int{48, 32, 1}, rng)
	x := mat.Randn(1, 48, 1, rng).Data
	buf := make([]float64, 2*m.Width())
	prefix := make([]float64, 32)
	if n := testing.AllocsPerRun(50, func() {
		m.InferPrefix(prefix, x[:32])
		m.InferFrom(prefix, x[32:], buf)
	}); n != 0 {
		t.Fatalf("InferPrefix + InferFrom allocate %v objects per call", n)
	}
}

// FuzzMLPInferSplitMatchesInfer runs checkSplit on arbitrary shapes and
// inputs. shape picks the input width (1-48), one layer or three and the
// weights' seed; every byte of data is one input: 0x00 is +0, 0x80 is -0,
// anything else int8(b)/32. Missing bytes read as +0, so every input
// decodes; all values are finite, as embeddings are. Both bodies of
// mat.AddRowsScaled run it.
func FuzzMLPInferSplitMatchesInfer(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0x80, 0x00, 0x7f, 0x81, 0x80}, uint16(4|1<<6))
	f.Fuzz(func(t *testing.T, data []byte, shape uint16) {
		in := 1 + int(shape&63)%48
		sizes := []int{in, 1 + int(shape>>7)%9}
		if shape&64 != 0 {
			sizes = []int{in, 1 + int(shape>>7)%9, 3, 1}
		}
		m := NewMLP(NewParams(), "mlp", sizes, rand.New(rand.NewSource(int64(shape))))
		x := make([]float64, in)
		for k := range x {
			if k >= len(data) {
				break
			}
			if x[k] = float64(int8(data[k])) / 32; data[k] == 0x80 {
				x[k] = negZero
			}
		}
		mat.EachBody(func(string) { checkSplit(t, m, x) })
	})
}

var benchOut []float64

// BenchmarkMLPInfer is one M_rk head at the benchmark's syn_hung shape
// (48 -> 32 -> 1) on each body of mat.AddRowsScaled.
func BenchmarkMLPInfer(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	m := NewMLP(NewParams(), "mlp", []int{48, 32, 1}, rng)
	x, buf := mat.Randn(1, 48, 1, rng).Data, make([]float64, 2*m.Width())
	mat.EachBody(func(body string) {
		b.Run(body, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchOut = m.Infer(x, buf)
			}
		})
	})
}

func TestAdamSkipsParamsWithoutGrad(t *testing.T) {
	p := NewParams()
	w := p.Add("w", mat.FromSlice(1, 1, []float64{5}))
	NewAdam(p, 0.5).Step()
	if w.Data.At(0, 0) != 5 {
		t.Fatalf("param without grad was updated")
	}
}

func TestDecayLR(t *testing.T) {
	opt := NewAdam(NewParams(), 0.005)
	opt.DecayLR(0.96)
	if math.Abs(opt.LR-0.0048) > 1e-12 {
		t.Fatalf("LR = %v", opt.LR)
	}
}

func TestMLPPanicsOnBadSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMLP(NewParams(), "bad", []int{3}, rand.New(rand.NewSource(0)))
}

// TestAdamStateFollowsRegistrationOrder pins the optimizer's state to the
// registry it was made for, index by index: a parameter registered after
// the optimizer was made gets moments of its own at its first Step with a
// gradient (under that step's bias correction, as the pointer-keyed maps
// gave it), and a parameter without a gradient rests.
func TestAdamStateFollowsRegistrationOrder(t *testing.T) {
	p := NewParams()
	a := p.Add("a", mat.FromSlice(1, 2, []float64{1, -2}))
	opt := NewAdam(p, 0.1)
	grad := func() *mat.Matrix { return mat.FromSlice(1, 2, []float64{0.5, -0.25}) }
	a.Grad = grad()
	opt.Step()
	rested := a.Data.Clone()
	if rested.At(0, 0) == 1 {
		t.Fatal("a did not move at its first step")
	}

	b := p.Add("b", mat.FromSlice(1, 2, []float64{1, -2}))
	a.Grad, b.Grad = nil, grad()
	opt.Step()
	if mat.MaxAbsDiff(a.Data, rested) != 0 {
		t.Fatalf("a moved to %v without a gradient", a.Data)
	}
	// Fresh moments under step 2's bias correction (1-β² in place of 1-β).
	m, v := (1-opt.Beta1)*0.5, (1-opt.Beta2)*0.25
	want := 1 - opt.LR*((m/(1-opt.Beta1*opt.Beta1))/(math.Sqrt(v/(1-opt.Beta2*opt.Beta2))+opt.Eps))
	if got := b.Data.At(0, 0); math.Abs(got-want) > 1e-15 {
		t.Fatalf("b[0] = %v after its first step, want %v", got, want)
	}
}
