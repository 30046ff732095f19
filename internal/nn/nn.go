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
	all    []*autograd.Value // registration order, parallel to names
	byName map[string]*autograd.Value
}

// NewParams returns an empty registry.
func NewParams() *Params {
	return &Params{byName: make(map[string]*autograd.Value)}
}

// Add registers a new trainable parameter under name and returns it.
func (p *Params) Add(name string, m *mat.Matrix) *autograd.Value {
	if _, ok := p.byName[name]; ok {
		panic(fmt.Sprintf("nn: duplicate parameter %q", name))
	}
	v := autograd.Param(m)
	p.names = append(p.names, name)
	p.all = append(p.all, v)
	p.byName[name] = v
	return v
}

// Get returns the parameter registered under name, or nil.
func (p *Params) Get(name string) *autograd.Value { return p.byName[name] }

// Names returns the registered names in registration order.
func (p *Params) Names() []string { return append([]string(nil), p.names...) }

// All returns the parameters in registration order. The slice is the
// registry's own: callers must not modify it.
func (p *Params) All() []*autograd.Value { return p.all }

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

// Load restores parameter tensors saved by Save. Every stored tensor must
// match a registered parameter's shape.
func (p *Params) Load(r io.Reader) error {
	var wire []paramWire
	if err := json.NewDecoder(r).Decode(&wire); err != nil {
		return err
	}
	for _, pw := range wire {
		v, ok := p.byName[pw.Name]
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

// Apply computes x*W + b on t.
func (l *Linear) Apply(t *autograd.Tape, x *autograd.Value) *autograd.Value {
	return t.AddRowBroadcast(t.MatMul(x, l.W), l.B)
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

// Apply runs the MLP on x (N x sizes[0]), recording on t.
func (m *MLP) Apply(t *autograd.Tape, x *autograd.Value) *autograd.Value {
	for i, l := range m.Layers {
		x = l.Apply(t, x)
		if i < len(m.Layers)-1 {
			x = t.ReLU(x)
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
// matches Apply exactly, so Infer(x) equals Apply(t, t.Const(x)).Data bit for
// bit. x is not modified.
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

// Adam is the Adam optimizer with decoupled L2 weight decay over one
// parameter registry.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

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
// leaves gradients untouched (callers ZeroGrad between steps).
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
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
		m, v, w := a.m[k], a.v[k], p.Data.Data
		for i, g := range p.Grad.Data {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mh := m[i] / bc1
			vh := v[i] / bc2
			w[i] -= a.LR * (mh/(math.Sqrt(vh)+a.Eps) + a.WeightDecay*w[i])
		}
	}
}

// DecayLR multiplies the learning rate by factor (the paper decays by 0.96
// every 5 epochs).
func (a *Adam) DecayLR(factor float64) { a.LR *= factor }
