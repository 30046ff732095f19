package nn

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

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
		if !slices.Equal(p1.Get(n).Data.Data, p2.Get(n).Data.Data) {
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

	q := NewParams()
	y := q.Add("y", &mat.Matrix{Rows: 1, Cols: 2, Data: []float64{7, 8}})
	q.Add("z", mat.New(1, 1))
	for name, bad := range map[string]string{
		"too few values":        `[{"name":"y","rows":1,"cols":2,"data":[5]},{"name":"z","rows":1,"cols":1,"data":[0]}]`,
		"too many values":       `[{"name":"y","rows":1,"cols":2,"data":[1,2,3]},{"name":"z","rows":1,"cols":1,"data":[0]}]`,
		"missing and duplicate": `[{"name":"z","rows":1,"cols":1,"data":[1]},{"name":"z","rows":1,"cols":1,"data":[2]}]`,
		"missing":               `[{"name":"z","rows":1,"cols":1,"data":[1]}]`,
	} {
		if err := q.Load(bytes.NewBufferString(bad)); err == nil {
			t.Errorf("%s: no error", name)
		}
		if y.Data.Data[0] != 7 || y.Data.Data[1] != 8 {
			t.Fatalf("%s: a refused load wrote %v", name, y.Data.Data)
		}
	}
}

func TestLinearShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewParams()
	l := NewLinear(p, "l", 4, 3, rng)
	if l.W.Data.Rows != 4 || l.W.Data.Cols != 3 || l.B.Data.Rows != 1 || l.B.Data.Cols != 3 {
		t.Fatalf("Linear W %dx%d, B %dx%d; want 4x3 and 1x3", l.W.Data.Rows, l.W.Data.Cols, l.B.Data.Rows, l.B.Data.Cols)
	}
	m := &MLP{Layers: []*Linear{l}}
	acts := make([]float64, m.Acts())
	if y := m.Forward(acts, mat.Randn(1, 4, 1, rng).Data); len(y) != 3 || m.Acts() != 3 {
		t.Fatalf("Linear output %d floats, %d kept; want 3", len(y), m.Acts())
	}
}

// fit runs full-batch Adam on m over the rows of x against targets y,
// the loss the mean over rows of lossFn, and returns the last epoch's
// loss.
func fit(m *MLP, p *Params, x *mat.Matrix, y []float64, lr float64, epochs int, lossFn func(x, t float64) (float64, float64)) float64 {
	opt := NewAdam(p, lr)
	acts, buf := make([]float64, m.Acts()), make([]float64, 2*m.Width())
	var loss float64
	for epoch := 0; epoch < epochs; epoch++ {
		p.ZeroGrad()
		loss = 0
		for i := 0; i < x.Rows; i++ {
			l, d := lossFn(m.Forward(acts, x.Row(i))[0], y[i])
			m.Backward(x.Row(i), acts, []float64{d / float64(x.Rows)}, nil, buf)
			loss += l / float64(x.Rows)
		}
		opt.Step()
	}
	return loss
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewParams()
	m := NewMLP(p, "xor", []int{2, 8, 1}, rng)
	x := &mat.Matrix{Rows: 4, Cols: 2, Data: []float64{0, 0, 0, 1, 1, 0, 1, 1}}
	y := []float64{0, 1, 1, 0}
	if loss := fit(m, p, x, y, 0.05, 400, BCEWithLogits); loss > 0.1 {
		t.Fatalf("XOR did not converge: loss %v", loss)
	}
	// Predictions on the training set must be correct.
	buf := make([]float64, 2*m.Width())
	for i := 0; i < 4; i++ {
		logit := m.Infer(x.Row(i), buf)[0]
		if pred, want := logit > 0, y[i] > 0.5; pred != want {
			t.Fatalf("XOR row %d misclassified (logit %v)", i, logit)
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
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		xv := -1 + 2*float64(i)/float64(n-1)
		x.Set(i, 0, xv)
		y[i] = xv * xv
	}
	if loss := fit(m, p, x, y, 0.01, 600, MSE); loss > 0.01 {
		t.Fatalf("regression did not converge: MSE %v", loss)
	}
}

// TestMLPBackwardFiniteDifference checks every weight's, bias's and
// input's gradient against central differences of a fixed linear
// combination of the outputs, on one to three layers, with an input that
// has a zero (whose weight row the backward skips).
func TestMLPBackwardFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, sizes := range [][]int{{5, 3}, {5, 6, 1}, {4, 7, 5, 2}} {
		p := NewParams()
		m := NewMLP(p, "mlp", sizes, rng)
		x := mat.Randn(1, sizes[0], 1, rng).Data
		x[1] = 0
		c := mat.Randn(1, sizes[len(sizes)-1], 1, rng).Data
		acts, buf := make([]float64, m.Acts()), make([]float64, 2*m.Width())
		loss := func() float64 {
			s := 0.0
			for j, v := range m.Infer(x, buf) {
				s += c[j] * v
			}
			return s
		}
		m.Forward(acts, x)
		dx := make([]float64, len(x))
		m.Backward(x, acts, c, dx, buf)
		const h = 1e-6
		check := func(name string, vals, grads []float64) {
			for i, orig := range vals {
				vals[i] = orig + h
				up := loss()
				vals[i] = orig - h
				down := loss()
				vals[i] = orig
				if want := (up - down) / (2 * h); math.Abs(grads[i]-want) > 1e-6*(1+math.Abs(want)) {
					t.Fatalf("sizes %v: %s[%d] analytic %.10g, finite difference %.10g", sizes, name, i, grads[i], want)
				}
			}
		}
		for k, v := range p.All() {
			check(p.Names()[k], v.Data.Data, v.Grad.Data)
		}
		check("x", x, dx)
	}
}

// TestLossGradients checks each loss's derivative against central
// differences, and BCE's stable form against the textbook one.
func TestLossGradients(t *testing.T) {
	const h = 1e-6
	for _, x := range []float64{-7, -1.3, -0.2, 0, 0.4, 2.5, 9} {
		for _, tgt := range []float64{0, 1, 2.5} {
			for name, f := range map[string]func(x, t float64) (float64, float64){"BCE": BCEWithLogits, "MSE": MSE} {
				if name == "BCE" && tgt > 1 {
					continue
				}
				up, _ := f(x+h, tgt)
				down, _ := f(x-h, tgt)
				if _, got := f(x, tgt); math.Abs(got-(up-down)/(2*h)) > 1e-6 {
					t.Fatalf("%s(%v, %v): derivative %v, finite difference %v", name, x, tgt, got, (up-down)/(2*h))
				}
			}
			if tgt > 1 {
				continue
			}
			s := 1 / (1 + math.Exp(-x))
			if got, _ := BCEWithLogits(x, tgt); math.Abs(got+tgt*math.Log(s)+(1-tgt)*math.Log(1-s)) > 1e-9 {
				t.Fatalf("BCE(%v, %v) = %v", x, tgt, got)
			}
		}
	}
}

// inferWidths are the input widths the identity tests run: below, at and
// above the four rows accumulate takes per pass (so its scalar tail sees 0
// to 3 rows), and the 24- and 48-wide inputs of M_rk's heads at Dim 8 and
// 16.
var inferWidths = []int{1, 3, 4, 5, 8, 24, 48}

var negZero = math.Copysign(0, -1)

// apply is the MLP as matrix products: x*W + b per layer, each output
// summed from zero over ascending k, ReLU between layers — the form the
// models were first trained on, and the oracle Infer and Forward are held
// to bit for bit.
func apply(m *MLP, x []float64) []float64 {
	cur := x
	for i, l := range m.Layers {
		w := l.W.Data
		next := make([]float64, w.Cols)
		for j := range next {
			s := 0.0
			for k, v := range cur {
				s += v * w.At(k, j)
			}
			next[j] = s
		}
		for j, b := range l.B.Data.Data {
			next[j] += b
		}
		if i < len(m.Layers)-1 {
			for j, v := range next {
				if v < 0 {
					next[j] = 0
				}
			}
		}
		cur = next
	}
	return cur
}

func TestMLPInferMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, in := range inferWidths {
		m := NewMLP(NewParams(), "mlp", []int{in, 8, 3, 1}, rng)
		if m.Width() != 8 {
			t.Fatalf("in %d: Width = %d; want 8", in, m.Width())
		}
		buf := make([]float64, 2*m.Width())
		acts := make([]float64, m.Acts())
		for trial := 0; trial < 10; trial++ {
			x := mat.Randn(1, in, 1, rng)
			want := apply(m, x.Data)
			if got := m.Infer(x.Data, buf); len(got) != 1 || got[0] != want[0] {
				t.Fatalf("in %d: Infer = %v; apply = %v (must be bit-identical)", in, got, want)
			}
			if got := m.Forward(acts, x.Data); len(got) != 1 || got[0] != want[0] {
				t.Fatalf("in %d: Forward = %v; apply = %v (must be bit-identical)", in, got, want)
			}
		}
		x := mat.Randn(1, in, 1, rng).Data
		if n := testing.AllocsPerRun(50, func() { m.Infer(x, buf) }); n != 0 {
			t.Fatalf("in %d: Infer allocates %v objects per call", in, n)
		}
		dx, dOut := make([]float64, in), []float64{0.5}
		if n := testing.AllocsPerRun(50, func() { m.Forward(acts, x); m.Backward(x, acts, dOut, dx, buf) }); n != 0 {
			t.Fatalf("in %d: Forward and Backward allocate %v objects per call", in, n)
		}
	}
}

// checkSplit holds m, at every column c its input can be split at, to
// InferFrom(InferPrefix(x[:c]), x[c:]) == Infer(x) == apply(x), bit
// pattern for bit pattern (so -0 does not pass for +0).
func checkSplit(t *testing.T, m *MLP, x []float64) {
	t.Helper()
	want := apply(m, x)
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
		t.Fatalf("in %d, %d layers: Infer = %v; apply = %v", len(x), len(m.Layers), got, want)
	}
	for c := 0; c <= len(x); c++ {
		m.InferPrefix(prefix, x[:c])
		if got := m.InferFrom(prefix, x[c:], buf); !same(got) {
			t.Fatalf("in %d, %d layers, split at %d: InferFrom = %v; apply = %v", len(x), len(m.Layers), c, got, want)
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
	w := p.Add("w", &mat.Matrix{Rows: 1, Cols: 1, Data: []float64{5}})
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
	a := p.Add("a", &mat.Matrix{Rows: 1, Cols: 2, Data: []float64{1, -2}})
	opt := NewAdam(p, 0.1)
	grad := func() *mat.Matrix { return &mat.Matrix{Rows: 1, Cols: 2, Data: []float64{0.5, -0.25}} }
	a.Grad = grad()
	opt.Step()
	rested := a.Data.Clone()
	if rested.At(0, 0) == 1 {
		t.Fatal("a did not move at its first step")
	}

	b := p.Add("b", &mat.Matrix{Rows: 1, Cols: 2, Data: []float64{1, -2}})
	a.Grad, b.Grad = nil, grad()
	opt.Step()
	if !slices.Equal(a.Data.Data, rested.Data) {
		t.Fatalf("a moved to %v without a gradient", a.Data)
	}
	// Fresh moments under step 2's bias correction (1-β² in place of 1-β).
	m, v := (1-opt.Beta1)*0.5, (1-opt.Beta2)*0.25
	want := 1 - opt.LR*((m/(1-opt.Beta1*opt.Beta1))/(math.Sqrt(v/(1-opt.Beta2*opt.Beta2))+opt.Eps))
	if got := b.Data.At(0, 0); math.Abs(got-want) > 1e-15 {
		t.Fatalf("b[0] = %v after its first step, want %v", got, want)
	}
}

// unflushedAdam is Adam.Step as it was before moments were flushed: the
// reference TestAdamFlushMatchesUnflushed holds the optimizer to.
type unflushedAdam struct {
	lr, beta1, beta2, eps float64
	t                     int
	w, m, v               []float64
	// sawM/sawV record that a moment went subnormal, so the test is not
	// vacuous.
	sawM, sawV bool
}

// minNormal is the smallest normal float64, 2^-1022: the threshold below
// which mat.AdamStep flushes a moment.
const minNormal = 0x1p-1022

func (a *unflushedAdam) step(grad []float64) {
	a.t++
	bc1 := 1 - math.Pow(a.beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, g := range grad {
		a.m[i] = a.beta1*a.m[i] + (1-a.beta1)*g
		a.v[i] = a.beta2*a.v[i] + (1-a.beta2)*g*g
		a.w[i] -= a.lr * ((a.m[i] / bc1) / (math.Sqrt(a.v[i]/bc2) + a.eps))
		if m := math.Abs(a.m[i]); m > 0 && m < minNormal {
			a.sawM = true
		}
		if a.v[i] > 0 && a.v[i] < minNormal {
			a.sawV = true
		}
	}
}

// TestAdamFlushMatchesUnflushed: flushing subnormal moments moves no
// weight bit. Gradient entries arrive in bursts separated by zero runs
// long enough (7,000–9,000 steps at β1 0.9) for m to decay through the
// subnormals. Every fourth entry carries gradients near 1e-160, whose
// square makes v subnormal at once. Every fourth other entry is a weight
// near 1e-270 with gradients near 1e-285: its ulp is small enough that
// flushing m anywhere above ~1e-292 would move it. After every step each
// weight equals the unflushed reference's bit for bit.
func TestAdamFlushMatchesUnflushed(t *testing.T) {
	const n, steps = 12, 26000
	rng := rand.New(rand.NewSource(5))
	init := make([]float64, n)
	for i := range init {
		init[i] = rng.NormFloat64() * 0.3
		if i%4 == 2 {
			init[i] *= 1e-270
		}
	}
	p := NewParams()
	w := p.Add("w", &mat.Matrix{Rows: 1, Cols: n, Data: slices.Clone(init)})
	w.Grad = mat.New(1, n)
	opt := NewAdam(p, 0.01)
	ref := &unflushedAdam{lr: opt.LR, beta1: opt.Beta1, beta2: opt.Beta2, eps: opt.Eps,
		w: slices.Clone(init), m: make([]float64, n), v: make([]float64, n)}

	// quietUntil[i] is the step at which entry i's current zero run ends.
	quietUntil := make([]int, n)
	for s := 0; s < steps; s++ {
		for i := range w.Grad.Data {
			g := 0.0
			if s >= quietUntil[i] {
				// A burst entry: mostly ordinary gradients, some tiny.
				scale := math.Pow(10, -12*rng.Float64())
				switch i % 4 {
				case 2:
					scale = 1e-285
				case 3:
					scale = 1e-160
				}
				g = rng.NormFloat64() * scale
				if rng.Intn(40) == 0 {
					quietUntil[i] = s + 7000 + rng.Intn(2000)
				}
			}
			w.Grad.Data[i] = g
		}
		opt.Step()
		ref.step(w.Grad.Data)
		for i, got := range w.Data.Data {
			if math.Float64bits(got) != math.Float64bits(ref.w[i]) {
				t.Fatalf("step %d: w[%d] = %v (%#x), unflushed %v (%#x)", s, i, got, math.Float64bits(got), ref.w[i], math.Float64bits(ref.w[i]))
			}
		}
	}
	if !ref.sawM || !ref.sawV {
		t.Fatalf("no subnormal moment reached (m %v, v %v): the sequence tests nothing", ref.sawM, ref.sawV)
	}
}
