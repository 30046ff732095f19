// Package nn holds the layers and training machinery the models share:
// a registry of parameters and their gradients, linear layers, multilayer
// perceptrons with a training forward and a hand-written backward, the two
// losses the models train on, the Adam optimizer, and parameter
// (de)serialization for trained models. The paper's L2 regularizer is not
// applied: Adam takes no weight decay.
package nn

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"github.com/lansearch/lan/internal/mat"
)

// Param is one trainable tensor and its gradient. Grad is nil until a
// backward rule first adds to it (GradData); Adam skips a parameter whose
// Grad is nil.
type Param struct {
	Data *mat.Matrix
	Grad *mat.Matrix
	// t is Data transposed, current while fresh is set (T).
	t     []float64
	fresh bool
}

// T returns Data transposed (Cols rows of Rows), for a backward to read:
// the input's gradient dout·Wᵀ of a layer out = x·W is Wᵀ's rows summed
// with mat.AddRowsScaled. It is made on the first call after the weights
// last moved and reused until they move again, so a training step
// transposes each weight once however many backwards read it. Adam.Step
// and Params.Load, the writers of Data, mark the weights moved. It
// allocates only the first time.
func (p *Param) T() []float64 {
	if !p.fresh {
		rows, cols := p.Data.Rows, p.Data.Cols
		if len(p.t) != rows*cols {
			p.t = make([]float64, rows*cols)
		}
		for i, row := 0, p.Data.Data; i < rows; i++ {
			for j, w := range row[i*cols : (i+1)*cols] {
				p.t[j*rows+i] = w
			}
		}
		p.fresh = true
	}
	return p.t
}

// DropTransposes lets go of every transpose T keeps. A trainer calls it
// after its last step, so that nothing a backward needed outlives
// training in the model.
func (p *Params) DropTransposes() {
	for _, q := range p.all {
		q.t, q.fresh = nil, false
	}
}

// GradData returns the floats of p's gradient for a backward rule to add
// into, zero-filled on first use.
func (p *Param) GradData() []float64 {
	if p.Grad == nil {
		p.Grad = mat.New(p.Data.Rows, p.Data.Cols)
	}
	return p.Grad.Data
}

// ZeroGrad clears p's gradient.
func (p *Param) ZeroGrad() {
	if p.Grad != nil {
		p.Grad.Zero()
	}
}

// Params is a named registry of trainable parameters. Models register
// their parameters so optimizers and serializers can walk them.
type Params struct {
	names  []string
	all    []*Param // registration order, parallel to names
	byName map[string]*Param
}

// NewParams returns an empty registry.
func NewParams() *Params {
	return &Params{byName: make(map[string]*Param)}
}

// Add registers a new trainable parameter under name and returns it.
func (p *Params) Add(name string, m *mat.Matrix) *Param {
	if _, ok := p.byName[name]; ok {
		panic(fmt.Sprintf("nn: duplicate parameter %q", name))
	}
	v := &Param{Data: m}
	p.names = append(p.names, name)
	p.all = append(p.all, v)
	p.byName[name] = v
	return v
}

// Get returns the parameter registered under name, or nil.
func (p *Params) Get(name string) *Param { return p.byName[name] }

// Names returns the registered names in registration order.
func (p *Params) Names() []string { return append([]string(nil), p.names...) }

// All returns the parameters in registration order. The slice is the
// registry's own: callers must not modify it.
func (p *Params) All() []*Param { return p.all }

// ZeroGrad clears every parameter gradient.
func (p *Params) ZeroGrad() {
	for _, v := range p.all {
		v.ZeroGrad()
	}
}

// Count returns the total number of scalar parameters.
func (p *Params) Count() int {
	n := 0
	for _, v := range p.all {
		n += len(v.Data.Data)
	}
	return n
}

// paramWire is the JSON wire form of one parameter.
type paramWire struct {
	Name string    `json:"name"`
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

// Save serializes all parameter tensors as JSON.
func (p *Params) Save(w io.Writer) error {
	wire := make([]paramWire, 0, len(p.names))
	names := append([]string(nil), p.names...)
	sort.Strings(names)
	for _, n := range names {
		v := p.byName[n]
		wire = append(wire, paramWire{Name: n, Rows: v.Data.Rows, Cols: v.Data.Cols, Data: v.Data.Data})
	}
	return json.NewEncoder(w).Encode(wire)
}

// Load restores parameter tensors saved by Save. The stored tensors must
// be exactly the registered ones: each name once, none missing, each with
// the registered shape and rows×cols values. Nothing is written unless all
// of them are.
func (p *Params) Load(r io.Reader) error {
	var wire []paramWire
	if err := json.NewDecoder(r).Decode(&wire); err != nil {
		return err
	}
	seen := make(map[string]bool, len(wire))
	for _, pw := range wire {
		v, ok := p.byName[pw.Name]
		if !ok {
			return fmt.Errorf("nn: unknown parameter %q", pw.Name)
		}
		if seen[pw.Name] {
			return fmt.Errorf("nn: parameter %q stored twice", pw.Name)
		}
		seen[pw.Name] = true
		if v.Data.Rows != pw.Rows || v.Data.Cols != pw.Cols {
			return fmt.Errorf("nn: parameter %q shape %dx%d, stored %dx%d",
				pw.Name, v.Data.Rows, v.Data.Cols, pw.Rows, pw.Cols)
		}
		if len(pw.Data) != len(v.Data.Data) {
			return fmt.Errorf("nn: parameter %q is %dx%d, stored with %d values",
				pw.Name, pw.Rows, pw.Cols, len(pw.Data))
		}
	}
	for _, n := range p.names {
		if !seen[n] {
			return fmt.Errorf("nn: parameter %q not stored", n)
		}
	}
	for _, pw := range wire {
		copy(p.byName[pw.Name].Data.Data, pw.Data)
		p.byName[pw.Name].fresh = false
	}
	return nil
}

// Linear is a fully connected layer: x (1 x in) -> x*W + b (1 x out).
type Linear struct {
	W *Param // in x out
	B *Param // 1 x out
}

// NewLinear registers a linear layer's parameters under prefix with
// Glorot-style initialization from rng.
func NewLinear(p *Params, prefix string, in, out int, rng *rand.Rand) *Linear {
	std := math.Sqrt(2.0 / float64(in+out))
	return &Linear{
		W: p.Add(prefix+".W", mat.Randn(in, out, std, rng)),
		B: p.Add(prefix+".B", mat.New(1, out)),
	}
}

// accumulate adds x*W[k0:k0+len(x)] to dst (len out): dst[j] +=
// x[i]*W[k0+i][j] over ascending i, on mat.AddRowsScaled — from a zeroed
// dst and k0 = 0, the float operations of the plain one-row product x·W
// in the same order.
func (l *Linear) accumulate(dst, x []float64, k0 int) {
	out := len(dst)
	mat.AddRowsScaled(dst, x, l.W.Data.Data[k0*out:], out)
}

// MLP is a multilayer perceptron with ReLU activations between layers and
// a linear final layer.
type MLP struct {
	Layers []*Linear
}

// NewMLP registers an MLP with the given layer sizes (len >= 2): sizes[0]
// inputs, sizes[len-1] outputs.
func NewMLP(p *Params, prefix string, sizes []int, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 1; i < len(sizes); i++ {
		m.Layers = append(m.Layers, NewLinear(p, fmt.Sprintf("%s.l%d", prefix, i-1), sizes[i-1], sizes[i], rng))
	}
	return m
}

// Width returns the widest layer output — the scratch Infer and Backward
// need is twice that.
func (m *MLP) Width() int {
	w := 0
	for _, l := range m.Layers {
		if c := l.W.Data.Cols; c > w {
			w = c
		}
	}
	return w
}

// Acts returns the number of floats Forward keeps: every layer's output.
func (m *MLP) Acts() int {
	n := 0
	for _, l := range m.Layers {
		n += l.W.Data.Cols
	}
	return n
}

// Infer runs the MLP on one input row without allocating: activations
// ping-pong between the halves of buf (at least 2*Width() floats), and
// the returned output row aliases buf. x is not modified.
func (m *MLP) Infer(x, buf []float64) []float64 { return m.InferFrom(nil, x, buf) }

// InferPrefix writes into dst (one float per first-layer output) the first
// layer's sum over the leading len(x) input columns: from zero, ascending,
// no bias — literally the first len(x) steps of Infer on any input that
// starts with x. InferFrom finishes it.
func (m *MLP) InferPrefix(dst, x []float64) {
	for j := range dst {
		dst[j] = 0
	}
	m.Layers[0].accumulate(dst, x, 0)
}

// InferFrom is Infer split at an input column: rest holds the trailing
// input columns and prefix what InferPrefix made of the ones before them
// (not read, and may be nil, when rest is the whole input). The first
// layer's sum resumes from prefix where InferPrefix stopped, so
// InferFrom(InferPrefix(x[:c]), x[c:]) equals Infer(x) bit for bit at every
// c. Neither prefix nor rest is modified; buf is as for Infer.
func (m *MLP) InferFrom(prefix, rest, buf []float64) []float64 {
	return m.run(prefix, rest, buf, false)
}

// Forward runs the MLP on the input row x for training: Infer's
// arithmetic, with every layer's output kept in acts (Acts() floats) for
// Backward. The returned output row aliases acts.
func (m *MLP) Forward(acts, x []float64) []float64 { return m.run(nil, x, acts, true) }

// run is the MLP's one forward. Each layer's output goes into buf: one
// after the other when keep is set, else ping-ponging between its halves.
func (m *MLP) run(prefix, rest, buf []float64, keep bool) []float64 {
	half, off := len(buf)/2, 0
	cur := rest
	for i, l := range m.Layers {
		var next []float64
		if keep {
			next = buf[off:][:l.W.Data.Cols]
			off += len(next)
		} else {
			next = buf[(i%2)*half:][:l.W.Data.Cols]
		}
		// Layers past the first always see their whole input.
		k0 := l.W.Data.Rows - len(cur)
		if k0 == 0 {
			for j := range next {
				next[j] = 0
			}
		} else {
			copy(next, prefix)
		}
		l.accumulate(next, cur, k0)
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

// Backward back-propagates dOut, the loss's gradient at the output of the
// Forward that filled acts from x. Every layer's bias and weights get
// their gradient added to their Param; when dx is not nil, the input's
// gradient is added to it. Layer by layer from the last: ReLU's mask, the
// bias (one row of the output gradient), the input gradient (each entry a
// dot product with a row of W, formed whole and then added: g·Wᵀ on
// mat.AddRowsScaled over W.T()) and the weights' (x[k]·g[j] for every
// non-zero x[k]: mat.AddOuter) — the rules and the order of the matrix
// engine this replaced, so gradients are its bits. buf is scratch of
// 2*Width() floats; dOut is not modified.
func (m *MLP) Backward(x, acts, dOut, dx, buf []float64) {
	// The gradient at layer i's output is in half (i+1)%2 of buf, the one
	// at its input in half i%2.
	half := len(buf) / 2
	ends := len(acts)
	g := buf[(len(m.Layers)%2)*half:][:len(dOut)]
	copy(g, dOut)
	for i := len(m.Layers) - 1; i >= 0; i-- {
		l := m.Layers[i]
		in, out := l.W.Data.Rows, l.W.Data.Cols
		if i < len(m.Layers)-1 {
			for j, v := range acts[ends-out : ends] {
				if !(v > 0) {
					g[j] = 0
				}
			}
		}
		ends -= out
		input := x
		if i > 0 {
			input = acts[ends-in : ends]
		}
		bg := l.B.GradData()
		for j, d := range g {
			bg[j] += d
		}
		var dIn []float64
		if i > 0 {
			dIn = buf[(i%2)*half:][:in]
		} else if dx != nil {
			dIn = dx
		}
		if dIn != nil {
			// dIn = g·Wᵀ, each entry summed from +0 over ascending j.
			wt := l.W.T()
			if i > 0 {
				clear(dIn)
				mat.AddRowsScaled(dIn, g, wt, in)
			} else {
				// The entries are formed whole before they are added to
				// dx, a column block at a time in buf's free half (g is
				// in the other).
				t := buf[:half]
				for c0 := 0; c0 < in; c0 += half {
					tc := t[:min(half, in-c0)]
					clear(tc)
					mat.AddRowsScaled(tc, g, wt[c0:], in)
					for k, s := range tc {
						dIn[c0+k] += s
					}
				}
			}
		}
		mat.AddOuter(l.W.GradData(), input, g, 1)
		g = dIn
	}
}

// BCEWithLogits returns the binary cross-entropy of logit x against a
// target t in {0,1}, in the numerically stable form max(x,0) − x·t +
// log(1+e^−|x|), and its derivative in x, σ(x) − t.
func BCEWithLogits(x, t float64) (loss, grad float64) {
	return math.Max(x, 0) - x*t + math.Log1p(math.Exp(-math.Abs(x))), 1/(1+math.Exp(-x)) - t
}

// MSE returns the squared error (x − t)² and its derivative in x.
func MSE(x, t float64) (loss, grad float64) {
	d := x - t
	return d * d, 2 * d
}

// Adam is the Adam optimizer over one parameter registry.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64

	params *Params
	t      int
	// m[i] and v[i] are the moment estimates of params.All()[i], nil until
	// that parameter first arrives at a Step with a gradient.
	m, v [][]float64
}

// NewAdam returns an Adam optimizer for params with the usual defaults
// (beta1=0.9, beta2=0.999, eps=1e-8).
func NewAdam(params *Params, lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
}

// Step applies one Adam update to every parameter with a gradient, then
// leaves gradients untouched (callers ZeroGrad between steps). The update
// of each parameter is mat.AdamStep, which also flushes a moment left to
// decay into the subnormals to +0, where x86 arithmetic is ~100x slower.
// What a subnormal m still moves, LR·m/Eps ≈ 2e-302, is below half an ulp
// of any weight above ~1e-285 in magnitude, and a later gradient above
// ~1e-290 swamps it in m; a subnormal v is below half an ulp of Eps under
// the square root. So no weight moves (TestAdamFlushMatchesUnflushed).
func (a *Adam) Step() {
	a.t++
	c := mat.Adam{
		Beta1: a.Beta1, Beta2: a.Beta2, C1: 1 - a.Beta1, C2: 1 - a.Beta2,
		BC1: 1 - math.Pow(a.Beta1, float64(a.t)), BC2: 1 - math.Pow(a.Beta2, float64(a.t)),
		LR: a.LR, Eps: a.Eps,
	}
	all := a.params.All()
	for len(a.m) < len(all) {
		a.m, a.v = append(a.m, nil), append(a.v, nil)
	}
	for k, p := range all {
		if p.Grad == nil {
			continue
		}
		if a.m[k] == nil {
			a.m[k] = make([]float64, len(p.Data.Data))
			a.v[k] = make([]float64, len(p.Data.Data))
		}
		mat.AdamStep(p.Data.Data, a.m[k], a.v[k], p.Grad.Data, &c)
		p.fresh = false
	}
}

// DecayLR multiplies the learning rate by factor (the paper decays by 0.96
// every 5 epochs).
func (a *Adam) DecayLR(factor float64) { a.LR *= factor }
