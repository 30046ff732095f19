package cg

import (
	"github.com/lansearch/lan/internal/mat"
	"github.com/lansearch/lan/internal/nn"
)

// Training runs each model's one forward (infer.go) with a record and
// back-propagates through the buffers it filled, by hand. The rules are
// those of the matrix engine the models were first trained on — a
// product's gradient is formed whole and then added, a weight's product
// skips the zero entries of its left operand — and they run in that
// engine's order: the reverse of a depth-first post-order of the loss's
// graph, operands left to right. Which addend a shared gradient receives
// first decides its last bits, so this is what keeps every gradient, and
// every trained weight, the same floats (models.TestTrainMatchesReference
// holds them to that engine with ==).

// side is what a recorded forward keeps of one layer on one side of the
// pair, and the gradients its backward fills.
type side struct {
	// alpha is the softmax over this side's previous-level groups: the
	// weights of the message the other side receives (cross model only).
	alpha []float64
	pre   []float64 // pre-activation rows (aggregation plus message), din wide
	h     []float64 // the layer's output rows, Dim wide
	dh    []float64 // ∂loss/∂h
	dpre  []float64 // ∂loss/∂pre
}

// A crossLayer holds one layer's two sides, G's and Q's.
type crossLayer [2]side

const (
	sideG = 0
	sideQ = 1
)

// CrossPass is a training forward of a CrossModel and its backward. Its
// memory is its own and reused by its next Forward (allocation-free once
// it has grown to the largest pair), so a trainer keeps one per forward
// it needs alive at once.
type CrossPass struct {
	m      *CrossModel
	c      [2]*Compressed // G, Q
	f      bump[float64]
	fwd    int // the floats Forward took
	layers []crossLayer
	// Backward's scratch: a weight gradient's product, the message's and
	// the softmax row's gradients.
	tmp, dmu, dp []float64
}

// Forward computes h_G || h_Q for g against q — the floats of
// Workspace.Cross, bit for bit — and records what Backward reads. The
// result is valid until the next Forward.
func (p *CrossPass) Forward(m *CrossModel, g, q *Compressed) []float64 {
	p.m, p.c = m, [2]*Compressed{g, q}
	p.f.off = 0
	p.f.reserve(m.Cfg.CrossDim() + crossFloats(m, g, q, true))
	out := p.f.take(m.Cfg.CrossDim())
	p.layers = resize(p.layers, m.Cfg.Layers)
	cross(&p.f, out, m, g, q, nil, p.layers)
	p.fwd = p.f.off
	return out
}

// Backward adds to the model's W and A2 gradients those of a loss whose
// gradient at the last Forward's output is dOut (2*Dim floats).
//
// The schedule is the engine's post-order reversed. Per side and layer,
// back runs the block of rules from the layer's ReLU down to the keys of
// the message it received; aggBack is the layer's aggregation. G's layer
// l reads Q's level l-1 and vice versa, so the blocks interleave: Q's
// last layer, then from the top G's layer l before Q's layer l-1, with
// each side's aggregation where its gradient is complete.
func (p *CrossPass) Backward(dOut []float64) {
	m, g, q := p.m, p.c[sideG], p.c[sideQ]
	L, dim, vocab := m.Cfg.Layers, m.Cfg.Dim, m.Cfg.Vocab.Size()
	p.f.off = p.fwd
	need, groups := 0, 0
	for l := 1; l <= L; l++ {
		din := dim
		if l == 1 {
			din = vocab
		}
		need += (g.Groups(l) + q.Groups(l)) * (dim + din)
		groups = max(groups, g.Groups(l-1), q.Groups(l-1))
	}
	p.f.reserve(need)
	for l := 1; l <= L; l++ {
		din := dim
		if l == 1 {
			din = vocab
		}
		for s := range p.layers[l-1] {
			sd := &p.layers[l-1][s]
			rows := p.c[s].Groups(l)
			sd.dh = p.f.take(rows * dim)
			clear(sd.dh)
			sd.dpre = p.f.take(rows * din)
		}
	}
	p.tmp = resize(p.tmp, max(vocab, dim)*dim)
	p.dmu = resize(p.dmu, max(vocab, dim))
	p.dp = resize(p.dp, groups)

	lay := p.layers
	readoutBack(lay[L-1][sideQ].dh, dOut[dim:2*dim], q.Levels[L].Size)
	p.back(L, sideQ)
	if L > 1 {
		aggBack(lay[L-2][sideQ].dh, lay[L-1][sideQ].dpre, &q.Levels[L], dim)
	}
	readoutBack(lay[L-1][sideG].dh, dOut[:dim], g.Levels[L].Size)
	for l := L; l > 1; l-- {
		p.back(l, sideG)
		p.back(l-1, sideQ)
		if l > 2 {
			aggBack(lay[l-3][sideQ].dh, lay[l-2][sideQ].dpre, &q.Levels[l-1], dim)
		}
		aggBack(lay[l-2][sideG].dh, lay[l-1][sideG].dpre, &g.Levels[l], dim)
	}
	p.back(1, sideG)
}

// back runs the rules of side s's layer l, from its output down: ReLU,
// the product by W (into pre's gradient and W's), the message's addition
// to every row, the message (the other side's softmax row times its
// previous rows, into both), the softmax, and the keys (those rows times
// a2, into both). Below level 1 the other side's rows are one-hots of
// its features and take no gradient.
func (p *CrossPass) back(l, s int) {
	m := p.m
	dim := m.Cfg.Dim
	din := m.Cfg.Vocab.Size()
	if l > 1 {
		din = dim
	}
	mine := &p.layers[l-1][s]
	o := 1 - s
	alpha := p.layers[l-1][o].alpha
	feat := p.c[o].Levels[0].Feature
	var prev *side
	if l > 1 {
		prev = &p.layers[l-2][o]
	}

	reluBack(mine.dh, mine.h)
	rows := len(mine.h) / dim
	linearBack(mine.dpre, m.W[l-1], mine.pre, mine.dh, rows, din, dim, p.tmp)

	dmu := p.dmu[:din]
	clear(dmu)
	for i := 0; i < rows; i++ {
		for c, d := range mine.dpre[i*din:][:din] {
			dmu[c] += d
		}
	}

	dp := p.dp[:len(alpha)]
	if prev == nil {
		for j, f := range feat {
			dp[j] = dmu[f]
		}
	} else {
		for j := range dp {
			sum := 0.0
			for c, v := range prev.h[j*din:][:din] {
				sum += dmu[c] * v
			}
			dp[j] = sum
		}
		for j, a := range alpha {
			if a == 0 {
				continue
			}
			row := prev.dh[j*din:][:din]
			for c, d := range dmu {
				row[c] += float64(a * d)
			}
		}
	}

	dot := 0.0
	for j, a := range alpha {
		dot += a * dp[j]
	}
	for j, a := range alpha {
		dp[j] = a * (dp[j] - dot)
	}

	a2 := m.A2[l-1]
	if prev != nil {
		for j, d := range dp {
			row := prev.dh[j*din:][:din]
			for c, a := range a2.Data.Data {
				row[c] += float64(d * a)
			}
		}
	}
	t := p.tmp[:din]
	clear(t)
	if prev == nil {
		for j, f := range feat {
			t[f] += dp[j]
		}
	} else {
		for j, d := range dp {
			for c, v := range prev.h[j*din:][:din] {
				if v != 0 {
					t[c] += v * d
				}
			}
		}
	}
	ga := a2.GradData()
	for c, v := range t {
		ga[c] += v
	}
}

// GINPass is a training forward of a GINModel and its backward, with
// CrossPass's memory rules.
type GINPass struct {
	m      *GINModel
	c      *Compressed
	f      bump[float64]
	fwd    int
	layers []side
	tmp    []float64
}

// Forward computes h_G for c — the floats of GINModel.Embed, bit for
// bit — and records what Backward reads. The result is valid until the
// next Forward.
func (p *GINPass) Forward(m *GINModel, c *Compressed) []float64 {
	p.m, p.c = m, c
	p.f.off = 0
	p.f.reserve(m.Cfg.Dim + ginFloats(m, c, true))
	out := p.f.take(m.Cfg.Dim)
	p.layers = resize(p.layers, m.Cfg.Layers)
	gin(&p.f, out, m, c, p.layers)
	p.fwd = p.f.off
	return out
}

// Backward adds to the model's W gradients those of a loss whose gradient
// at the last Forward's output is dOut (Dim floats): the readout, then
// layer by layer from the top its ReLU, its product by W and its
// aggregation.
func (p *GINPass) Backward(dOut []float64) {
	m, c := p.m, p.c
	L, dim, vocab := m.Cfg.Layers, m.Cfg.Dim, m.Cfg.Vocab.Size()
	p.f.off = p.fwd
	p.f.reserve(ginFloats(m, c, true))
	for l := 1; l <= L; l++ {
		s := &p.layers[l-1]
		s.dh = p.f.take(len(s.h))
		clear(s.dh)
		s.dpre = nil
		if l > 1 {
			s.dpre = p.f.take(len(s.pre))
		}
	}
	p.tmp = resize(p.tmp, max(vocab, dim)*dim)

	readoutBack(p.layers[L-1].dh, dOut, c.Levels[L].Size)
	for l := L; l >= 1; l-- {
		s := &p.layers[l-1]
		din := dim
		if l == 1 {
			din = vocab
		}
		reluBack(s.dh, s.h)
		linearBack(s.dpre, m.W[l-1], s.pre, s.dh, len(s.h)/dim, din, dim, p.tmp)
		if l > 1 {
			aggBack(p.layers[l-2].dh, s.dpre, &c.Levels[l], dim)
		}
	}
}

// readoutBack adds to dh (one row per group) the size-weighted mean's
// share of dOut: size_i/total of it to row i.
func readoutBack(dh, dOut, sizes []float64) {
	total := 0.0
	for _, s := range sizes {
		total += s
	}
	d := len(dOut)
	for i, s := range sizes {
		f := s / total
		row := dh[i*d:][:d]
		for c, v := range dOut {
			row[c] += f * v
		}
	}
}

// reluBack zeroes the gradient dh wherever ReLU's output h is not
// positive.
func reluBack(dh, h []float64) {
	for i, v := range h {
		if !(v > 0) {
			dh[i] = 0
		}
	}
}

// linearBack back-propagates out = pre·W (rows x din times din x dim):
// dpre = dout·Wᵀ (skipped when dpre is nil), each row summed from +0 on
// mat.AddRowsScaled over the rows of Wᵀ (made once per training step, by
// w.T()), and W's gradient gets preᵀ·dout, formed whole in tmp on
// mat.AddOuter and then added.
func linearBack(dpre []float64, w *nn.Param, pre, dout []float64, rows, din, dim int, tmp []float64) {
	if dpre != nil {
		wt := w.T()
		for r := 0; r < rows; r++ {
			d := dpre[r*din:][:din]
			clear(d)
			mat.AddRowsScaled(d, dout[r*dim:][:dim], wt, din)
		}
	}
	t := tmp[:din*dim]
	clear(t)
	if rows > 0 {
		mat.AddOuter(t, pre[:rows*din], dout[:rows*dim], rows)
	}
	g := w.GradData()
	for i, v := range t {
		g[i] += v
	}
}

// aggBack adds to dPrev, the previous level's rows, what the aggregation
// over lv.In passed on of dPre: e.W·dPre[i] to row e.Row, for every term
// e of group i in order.
func aggBack(dPrev, dPre []float64, lv *Level, d int) {
	for i, terms := range lv.In {
		dout := dPre[i*d:][:d]
		for _, e := range terms {
			mat.AddRowsScaled(dPrev[e.Row*d:][:d], []float64{e.W}, dout, d)
		}
	}
}

// resize returns s with length n, reallocated only when it is too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
