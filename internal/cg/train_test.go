package cg

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/nn"
)

// checkGrads compares every gradient in p with central differences of
// loss over its parameter, skipping the names in skip (which must have
// no gradient). The loss is a fixed linear combination of a model's
// outputs, so the check reaches every rule of the backward. ReLU kinks
// are the only non-smooth points; weights drawn from a Gaussian keep
// pre-activations off them.
func checkGrads(t *testing.T, what string, p *nn.Params, skip string, loss func() float64) {
	t.Helper()
	const h = 1e-6
	for k, name := range p.Names() {
		v := p.All()[k]
		if skip != "" && strings.HasPrefix(name, skip) {
			if v.Grad != nil {
				t.Fatalf("%s: %s received a gradient", what, name)
			}
			continue
		}
		if v.Grad == nil {
			t.Fatalf("%s: %s received no gradient", what, name)
		}
		for i, orig := range v.Data.Data {
			v.Data.Data[i] = orig + h
			up := loss()
			v.Data.Data[i] = orig - h
			down := loss()
			v.Data.Data[i] = orig
			want := (up - down) / (2 * h)
			if got := v.Grad.Data[i]; math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("%s: %s[%d] analytic %.10g, finite difference %.10g", what, name, i, got, want)
			}
		}
	}
}

// weights returns n fixed loss coefficients.
func weights(n int, rng *rand.Rand) []float64 {
	c := make([]float64, n)
	for i := range c {
		c[i] = rng.NormFloat64()
	}
	return c
}

func dotWith(c, x []float64) float64 {
	s := 0.0
	for i, v := range x {
		s += c[i] * v
	}
	return s
}

// TestCrossBackwardFiniteDifference checks CrossPass.Backward against
// central differences of the forward, on compressed and raw inputs, at
// one to three layers (the backward's schedule interleaves the two sides
// differently at each depth), with attention weights large enough that
// the softmax rows are far from uniform.
func TestCrossBackwardFiniteDifference(t *testing.T) {
	vocab := vocabOf(5)
	gs := labelledGraphs(17, 6, vocab)
	for layers := 1; layers <= 3; layers++ {
		for name, build := range map[string]func(*graph.Graph, int, *Vocab) *Compressed{"compressed": Build, "raw": BuildRaw} {
			rng := rand.New(rand.NewSource(int64(layers)))
			p := nn.NewParams()
			m := NewCrossModel(p, "m", Config{Layers: layers, Dim: 3, Vocab: vocab}, rng)
			for _, a := range m.A2 {
				for i := range a.Data.Data {
					a.Data.Data[i] *= 4
				}
			}
			g, q := build(gs[4], layers, vocab), build(gs[5], layers, vocab)
			c := weights(m.Cfg.CrossDim(), rng)
			var pass CrossPass
			pass.Forward(m, g, q)
			pass.Backward(c)
			checkGrads(t, fmt.Sprintf("%d layers, %s", layers, name), p, "m.a1_", func() float64 {
				return dotWith(c, m.Infer(g, q))
			})
		}
	}
}

// TestGINBackwardFiniteDifference is the same check for GINPass.
func TestGINBackwardFiniteDifference(t *testing.T) {
	vocab := vocabOf(5)
	gs := labelledGraphs(19, 6, vocab)
	for layers := 1; layers <= 3; layers++ {
		rng := rand.New(rand.NewSource(int64(layers)))
		p := nn.NewParams()
		m := NewGINModel(p, "gin", Config{Layers: layers, Dim: 3, Vocab: vocab}, rng)
		c := Build(gs[5], layers, vocab)
		w := weights(m.Cfg.Dim, rng)
		var pass GINPass
		pass.Forward(m, c)
		pass.Backward(w)
		checkGrads(t, fmt.Sprintf("%d layers", layers), p, "", func() float64 { return dotWith(w, m.Embed(c)) })
	}
}

// TestPassAllocs: warmed passes allocate nothing, forward or backward.
func TestPassAllocs(t *testing.T) {
	vocab := vocabOf(52)
	gs := labelledGraphs(3, 8, vocab)
	p := nn.NewParams()
	rng := rand.New(rand.NewSource(1))
	m := NewCrossModel(p, "m", Config{Layers: 2, Dim: 16, Vocab: vocab}, rng)
	gin := NewGINModel(p, "gin", Config{Layers: 2, Dim: 16, Vocab: vocab}, rng)
	cs := make([]*Compressed, len(gs))
	for i, g := range gs {
		cs[i] = Build(g, 2, vocab)
	}
	var cross CrossPass
	var node GINPass
	dOut := weights(32, rng)
	run := func() {
		for _, g := range cs {
			cross.Forward(m, g, cs[0])
			cross.Backward(dOut)
			node.Forward(gin, g)
			node.Backward(dOut[:16])
		}
	}
	run()
	runtime.GC()
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Fatalf("warmed passes allocate %v objects per sweep", n)
	}
}
