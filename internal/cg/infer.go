package cg

import (
	"math"

	"github.com/lansearch/lan/internal/mat"
)

// The one forward of both models. Routing and initial selection call the
// cross model hundreds of times per query against one query graph, so the
// kernel draws every temporary from a bump slab (the search's Workspace,
// or a training pass's own), never multiplies by a one-hot matrix
// (level-0 embeddings are read as feature indices: a key score is a
// look-up in a, an aggregation term lands in one column) and skips the
// zero entries of a pre-activation row when multiplying by W. A layer is
// two mat kernel calls a side: per group, mat.GatherRows sums the
// previous level's rows its terms name; then one mat.MulRowsReLU
// multiplies every pre-activation row of the level by W and applies ReLU.
// The attention and readout weighted sums run on mat.AddRowsScaled. Each
// output element is still accumulated from zero over ascending k, so for
// finite weights the result equals the matrix kernels this replaced bit
// for bit (reference_test.go keeps those; TestInferKernelMatchesReference
// and FuzzInferMatchesReference compare with ==, on both of the kernels'
// bodies). A pass keeps every pre-activation row of a level on the slab,
// with or without a record. Training runs the same kernel with a record
// (train.go): it keeps the softmax rows, the pre-activation rows and the
// layer outputs that the backward reads.

// Infer computes the cross-graph embedding h_G || h_Q (2*Dim floats) on a
// workspace of its own. Searches go through Workspace.Bind and Cross; this
// wrapper serves tests and one-off callers.
func (m *CrossModel) Infer(cgG, cgQ *Compressed) []float64 {
	ws := NewWorkspace()
	ws.Bind(m, cgQ)
	out := make([]float64, m.Cfg.CrossDim())
	ws.Cross(out, cgG)
	return out
}

// Bind makes (m, q) the pair the following Cross calls infer against and
// computes what depends on q alone: the layer-1 cross message every group
// of g receives from q's level-0 groups.
func (ws *Workspace) Bind(m *CrossModel, q *Compressed) {
	ws.m, ws.q = m, q
	lv := &q.Levels[0]
	n := len(lv.Feature)
	if d := m.Cfg.Vocab.Size(); cap(ws.qMu) < d {
		ws.qMu = make([]float64, d)
	} else {
		ws.qMu = ws.qMu[:d]
	}
	ws.f.reserve(2 * n)
	kq := keys(ws.f.take(n), nil, lv.Feature, m.A2[0].Data.Data)
	attend(ws.qMu, kq, lv.LogSize, nil, lv.Feature, ws.f.take(n))
	ws.f.off -= 2 * n
}

// Cross writes h_{G,Q} = h_G || h_Q for g against the bound query into
// dst (2*Dim floats).
func (ws *Workspace) Cross(dst []float64, g *Compressed) {
	ws.f.reserve(crossFloats(ws.m, g, ws.q, false))
	cross(&ws.f, dst, ws.m, g, ws.q, ws.qMu, nil)
}

// crossFloats is the number of slab floats cross takes for one pair, with
// a record (train) or without; it mirrors the take calls there.
func crossFloats(m *CrossModel, g, q *Compressed, train bool) int {
	din, dim := m.Cfg.Vocab.Size(), m.Cfg.Dim
	total := 0
	for l := 1; l <= m.Cfg.Layers; l++ {
		ng, nq := g.Groups(l-1), q.Groups(l-1)
		rg, rq := g.Groups(l), q.Groups(l)
		total += 2*ng + din + (rg+rq)*(din+dim)
		if l > 1 || train {
			total += 2*nq + din
		}
		din = dim
	}
	return total
}

// cross is the cross model's kernel: L rounds of two-way attention over
// the previous level's groups and a GIN layer on each side, then the
// size-weighted mean readout of both, into dst. Every group of a side
// receives the same cross message (the softmax cancels a1·h_i; see the
// package comment), so it is computed once per side and layer. Without a
// record, layer 1's message to g is qMu (Bind's) and the kernel pops what
// it took from f; with one (rec, one entry per layer) it computes that
// message too, records what the backward reads — the softmax rows, the
// pre-activation rows and the layer outputs — and leaves it all on f. f
// must hold crossFloats(m, g, q, rec != nil) floats past its offset.
func cross(f *bump[float64], dst []float64, m *CrossModel, g, q *Compressed, qMu []float64, rec []crossLayer) {
	base := f.off
	din, dim := m.Cfg.Vocab.Size(), m.Cfg.Dim
	// hg/hq are the previous level's embeddings, row-major and din wide;
	// nil at level 0, where row i is the one-hot of Feature[i].
	var hg, hq []float64
	for l := 1; l <= m.Cfg.Layers; l++ {
		w, a2 := m.W[l-1].Data.Data, m.A2[l-1].Data.Data
		pg, pq := &g.Levels[l-1], &q.Levels[l-1]
		ng, nq := len(pg.Size), len(pq.Size)

		alphaG, muQ := f.take(ng), f.take(din)
		attend(muQ, keys(f.take(ng), hg, pg.Feature, a2), pg.LogSize, hg, pg.Feature, alphaG)
		muG, alphaQ := qMu, []float64(nil)
		if l > 1 || rec != nil {
			alphaQ, muG = f.take(nq), f.take(din)
			attend(muG, keys(f.take(nq), hq, pq.Feature, a2), pq.LogSize, hq, pq.Feature, alphaQ)
		}

		lg, lq := &g.Levels[l], &q.Levels[l]
		preG, preQ := f.take(len(lg.In)*din), f.take(len(lq.In)*din)
		nextG, nextQ := f.take(len(lg.In)*dim), f.take(len(lq.In)*dim)
		layer(nextG, preG, hg, pg.Feature, muG, lg, w, din)
		layer(nextQ, preQ, hq, pq.Feature, muQ, lq, w, din)
		if rec != nil {
			rec[l-1] = crossLayer{{alpha: alphaG, pre: preG, h: nextG}, {alpha: alphaQ, pre: preQ, h: nextQ}}
		}
		hg, hq, din = nextG, nextQ, dim
	}
	readout(dst[:dim], hg, g.Levels[m.Cfg.Layers].Size)
	readout(dst[dim:2*dim], hq, q.Levels[m.Cfg.Layers].Size)
	if rec == nil {
		f.off = base
	}
}

// Embed computes the GIN embedding h_G (Dim floats) of c.
func (m *GINModel) Embed(c *Compressed) []float64 {
	var f bump[float64]
	f.reserve(ginFloats(m, c, false))
	out := make([]float64, m.Cfg.Dim)
	gin(&f, out, m, c, nil)
	return out
}

// ginFloats is the number of slab floats gin takes for c, with a record
// (train) or without — the same count, since both keep every
// pre-activation row; it mirrors the take calls there.
func ginFloats(m *GINModel, c *Compressed, train bool) int {
	din, dim := m.Cfg.Vocab.Size(), m.Cfg.Dim
	total := 0
	for l := 1; l <= m.Cfg.Layers; l++ {
		total += c.Groups(l) * (din + dim)
		din = dim
	}
	return total
}

// gin is the GIN model's kernel: cross's layers without the cross
// message, then the size-weighted mean readout into dst. With a record
// (rec, one entry per layer) it records the pre-activation rows and the
// layer outputs the backward reads. f must hold ginFloats(m, c, rec !=
// nil) floats past its offset; nothing is popped.
func gin(f *bump[float64], dst []float64, m *GINModel, c *Compressed, rec []side) {
	din, dim := m.Cfg.Vocab.Size(), m.Cfg.Dim
	var h []float64
	for l := 1; l <= m.Cfg.Layers; l++ {
		lv := &c.Levels[l]
		pre, next := f.take(len(lv.In)*din), f.take(len(lv.In)*dim)
		layer(next, pre, h, c.Levels[l-1].Feature, nil, lv, m.W[l-1].Data.Data, din)
		if rec != nil {
			rec[l-1] = side{pre: pre, h: next}
		}
		h, din = next, dim
	}
	readout(dst, h, c.Levels[m.Cfg.Layers].Size)
}

// keys writes into k the attention key a·h_j of every row of h (len(a)
// wide) and returns k; when h is nil the rows are the one-hots of feat,
// and a key is the look-up a[feat[j]].
func keys(k, h []float64, feat []int, a []float64) []float64 {
	if h == nil {
		for j, f := range feat {
			k[j] = a[f]
		}
		return k
	}
	d := len(a)
	for j := range k {
		s := 0.0
		for c, v := range h[j*d : (j+1)*d] {
			s += v * a[c]
		}
		k[j] = s
	}
	return k
}

// attend writes into mu the cross message one side receives: the softmax
// over the other side's groups of key[j] + logSize[j], applied to the
// other side's embeddings — dense rows of other (len(mu) wide), or, when
// other is nil, the one-hots of feat. scores (len(key) floats or more)
// is left holding the softmax row.
func attend(mu, key, logSize, other []float64, feat []int, scores []float64) {
	for k := range mu {
		mu[k] = 0
	}
	scores = scores[:len(key)]
	maxScore := math.Inf(-1)
	for j, kj := range key {
		s := kj + logSize[j]
		scores[j] = s
		if s > maxScore {
			maxScore = s
		}
	}
	sum := 0.0
	for j, s := range scores {
		e := math.Exp(s - maxScore)
		scores[j] = e
		sum += e
	}
	if other != nil {
		for j, e := range scores {
			scores[j] = e / sum
		}
		addNonzeroRows(mu, scores, other)
		return
	}
	for j, e := range scores {
		alpha := e / sum
		scores[j] = alpha
		if alpha != 0 {
			mu[feat[j]] += alpha
		}
	}
}

// layer computes one side's next level into next (len(lv.In) rows, Dim
// wide) in two steps. It fills pre (len(lv.In) rows, din wide) with the
// pre-activation rows: group i's aggregation of the previous level over
// lv.In[i] — a mat.GatherRows of dense rows of prev, or, when prev is nil,
// a scatter of the one-hots of prevFeat — plus the side's cross message
// mu (none when nil). Then one mat.MulRowsReLU multiplies every row by w
// and applies ReLU, skipping each row's zero entries — most of a one-hot
// level's — which leaves every sum unchanged.
func layer(next, pre, prev []float64, prevFeat []int, mu []float64, lv *Level, w []float64, din int) {
	for i, terms := range lv.In {
		row := pre[i*din:][:din]
		if prev == nil {
			clear(row)
			for _, e := range terms {
				row[prevFeat[e.Row]] += e.W
			}
		} else {
			mat.GatherRows(row, terms, prev)
		}
		for k, v := range mu {
			row[k] += v
		}
	}
	mat.MulRowsReLU(next, pre, din, w)
}

// addNonzeroRows adds x·w to dst (w's rows len(dst) wide) on
// mat.AddRowsScaled, one call per maximal run of non-zero entries of x.
// The zero entries of the softmax row attend passes — those of groups
// whose score underflowed — are skipped; from a +0 start that changes no
// sum (mat.TestAddRowsScaledAddsZeroRowsHarmlessly).
func addNonzeroRows(dst, x, w []float64) {
	n := len(dst)
	for k := 0; k < len(x); {
		if x[k] == 0 {
			k++
			continue
		}
		k1 := k + 1
		for k1 < len(x) && x[k1] != 0 {
			k1++
		}
		mat.AddRowsScaled(dst, x[k:k1], w[k*n:], n)
		k = k1
	}
}

// readout writes the size-weighted mean of h's rows (len(dst) wide) into
// dst.
func readout(dst, h, sizes []float64) {
	d := len(dst)
	for k := range dst {
		dst[k] = 0
	}
	total := 0.0
	for _, s := range sizes {
		total += s
	}
	mat.AddRowsScaled(dst, sizes, h, d)
	for k := range dst {
		dst[k] /= total
	}
}
