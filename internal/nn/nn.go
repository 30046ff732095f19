// Package nn builds neural network layers and training machinery on top of
// the autograd engine: parameter registries, linear layers, multilayer
// perceptrons, the Adam optimizer with L2 weight decay (the paper's
// regularizer), and parameter (de)serialization for trained models.
package nn

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"github.com/lansearch/lan/internal/autograd"
	"github.com/lansearch/lan/internal/mat"
)

// Params is a named registry of trainable parameters. Models register
// their parameters so optimizers and serializers can walk them.
type Params struct {
	names  []string
	values map[string]*autograd.Value
}

// NewParams returns an empty registry.
func NewParams() *Params {
	return &Params{values: make(map[string]*autograd.Value)}
}

// Add registers a new trainable parameter under name and returns it.
func (p *Params) Add(name string, m *mat.Matrix) *autograd.Value {
	if _, ok := p.values[name]; ok {
		panic(fmt.Sprintf("nn: duplicate parameter %q", name))
	}
	v := autograd.Param(m)
	p.names = append(p.names, name)
	p.values[name] = v
	return v
}

// Get returns the parameter registered under name, or nil.
func (p *Params) Get(name string) *autograd.Value { return p.values[name] }

// Names returns the registered names in registration order.
func (p *Params) Names() []string { return append([]string(nil), p.names...) }

// All returns the parameters in registration order.
func (p *Params) All() []*autograd.Value {
	out := make([]*autograd.Value, len(p.names))
	for i, n := range p.names {
		out[i] = p.values[n]
	}
	return out
}

// ZeroGrad clears every parameter gradient.
func (p *Params) ZeroGrad() {
	for _, v := range p.values {
		v.ZeroGrad()
	}
}

// Count returns the total number of scalar parameters.
func (p *Params) Count() int {
	n := 0
	for _, v := range p.values {
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
		v := p.values[n]
		wire = append(wire, paramWire{Name: n, Rows: v.Data.Rows, Cols: v.Data.Cols, Data: v.Data.Data})
	}
	return json.NewEncoder(w).Encode(wire)
}

// Load restores parameter tensors saved by Save. Every stored tensor must
// match a registered parameter's shape.
func (p *Params) Load(r io.Reader) error {
	var wire []paramWire
	if err := json.NewDecoder(r).Decode(&wire); err != nil {
		return err
	}
	for _, pw := range wire {
		v, ok := p.values[pw.Name]
		if !ok {
			return fmt.Errorf("nn: unknown parameter %q", pw.Name)
		}
		if v.Data.Rows != pw.Rows || v.Data.Cols != pw.Cols {
			return fmt.Errorf("nn: parameter %q shape %dx%d, stored %dx%d",
				pw.Name, v.Data.Rows, v.Data.Cols, pw.Rows, pw.Cols)
		}
		copy(v.Data.Data, pw.Data)
	}
	return nil
}

// Linear is a fully connected layer: x (N x in) -> x*W + b (N x out).
type Linear struct {
	W *autograd.Value // in x out
	B *autograd.Value // 1 x out
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

// Apply computes x*W + b.
func (l *Linear) Apply(x *autograd.Value) *autograd.Value {
	return autograd.AddRowBroadcast(autograd.MatMul(x, l.W), l.B)
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

// Apply runs the MLP on x (N x sizes[0]).
func (m *MLP) Apply(x *autograd.Value) *autograd.Value {
	for i, l := range m.Layers {
		x = l.Apply(x)
		if i < len(m.Layers)-1 {
			x = autograd.ReLU(x)
		}
	}
	return x
}

// accumulate adds x*W[k0:k0+len(x)] to dst (len out): dst[j] +=
// x[i]*W[k0+i][j] over ascending i — from a zeroed dst and k0 = 0, the
// float operations of mat.Mul on a one-row operand in the same order, as a
// plain row loop instead of the tiled kernel these few-dozen-wide operands
// gain nothing from. Four rows of W go through one pass over dst: every
// dst[j] still receives its terms one at a time in ascending order, so the
// blocking changes no float, only how often dst is loaded and stored.
//
//lan:hotpath
func (l *Linear) accumulate(dst, x []float64, k0 int) {
	out := len(dst)
	w := l.W.Data.Data[k0*out:]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		a0, a1, a2, a3 := x[i], x[i+1], x[i+2], x[i+3]
		r0, r1 := w[i*out:][:out], w[(i+1)*out:][:out]
		r2, r3 := w[(i+2)*out:][:out], w[(i+3)*out:][:out]
		for j, d := range dst {
			d += a0 * r0[j]
			d += a1 * r1[j]
			d += a2 * r2[j]
			d += a3 * r3[j]
			dst[j] = d
		}
	}
	for ; i < len(x); i++ {
		a := x[i]
		for j, b := range w[i*out:][:out] {
			dst[j] += a * b
		}
	}
}

// Width returns the widest layer output — the scratch Infer needs is
// twice that.
func (m *MLP) Width() int {
	w := 0
	for _, l := range m.Layers {
		if c := l.W.Data.Cols; c > w {
			w = c
		}
	}
	return w
}

// Infer runs the MLP on one input row without building an autograd tape
// and without allocating: activations ping-pong between the halves of
// buf (at least 2*Width() floats), and the returned output row aliases
// buf. The arithmetic (accumulation order, bias after the product, ReLU)
// matches Apply exactly, so Infer(x) equals Apply(Const(x)).Data bit for
// bit. x is not modified.
//
//lan:hotpath
func (m *MLP) Infer(x, buf []float64) []float64 { return m.InferFrom(nil, x, buf) }

// InferPrefix writes into dst (one float per first-layer output) the first
// layer's sum over the leading len(x) input columns: from zero, ascending,
// no bias — literally the first len(x) steps of Infer on any input that
// starts with x. InferFrom finishes it.
//
//lan:hotpath
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
//
//lan:hotpath
func (m *MLP) InferFrom(prefix, rest, buf []float64) []float64 {
	half := len(buf) / 2
	cur := rest
	for i, l := range m.Layers {
		next := buf[(i%2)*half:][:l.W.Data.Cols]
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

// Adam is the Adam optimizer with decoupled L2 weight decay.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	t int
	m map[*autograd.Value]*mat.Matrix
	v map[*autograd.Value]*mat.Matrix
}

// NewAdam returns an Adam optimizer with the usual defaults
// (beta1=0.9, beta2=0.999, eps=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*autograd.Value]*mat.Matrix),
		v: make(map[*autograd.Value]*mat.Matrix),
	}
}

// Step applies one Adam update to every parameter with a gradient, then
// leaves gradients untouched (callers ZeroGrad between steps).
func (a *Adam) Step(params *Params) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params.All() {
		if p.Grad == nil {
			continue
		}
		m, ok := a.m[p]
		if !ok {
			m = mat.New(p.Data.Rows, p.Data.Cols)
			a.m[p] = m
			a.v[p] = mat.New(p.Data.Rows, p.Data.Cols)
		}
		v := a.v[p]
		for i, g := range p.Grad.Data {
			m.Data[i] = a.Beta1*m.Data[i] + (1-a.Beta1)*g
			v.Data[i] = a.Beta2*v.Data[i] + (1-a.Beta2)*g*g
			mh := m.Data[i] / bc1
			vh := v.Data[i] / bc2
			p.Data.Data[i] -= a.LR * (mh/(math.Sqrt(vh)+a.Eps) + a.WeightDecay*p.Data.Data[i])
		}
	}
}

// DecayLR multiplies the learning rate by factor (the paper decays by 0.96
// every 5 epochs).
func (a *Adam) DecayLR(factor float64) { a.LR *= factor }
