package cg

import (
	"math"

	"github.com/lansearch/lan/internal/mat"
)

// Tape-free cross-graph inference on a Workspace. Routing and initial
// selection call the cross model hundreds of times per query against one
// query graph, so the inference path builds no autodiff tape, draws every
// temporary from the search's workspace, never multiplies by a one-hot
// matrix (level-0 embeddings are read as feature indices: a key score is
// a look-up in a, an aggregation term lands in one column) and skips the
// zero entries of a pre-activation row when multiplying by W. Its dense
// products — the aggregation terms, the product by W, the attention and
// readout weighted sums — run on mat.AddRowsScaled. Each output element
// is still accumulated from zero over ascending k, so for finite weights
// the result equals the matrix kernels this replaced bit for bit
// (reference_test.go keeps those; TestInferKernelMatchesReference and
// FuzzInferMatchesReference compare with ==, on both of the kernel's
// bodies).

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
	ws.f.reserve(crossFloats(ws.m, g, ws.q))
	ws.cross(dst, g)
}

// crossFloats is the number of slab floats cross takes for one pair; it
// mirrors the take calls there.
func crossFloats(m *CrossModel, g, q *Compressed) int {
	din, dim := m.Cfg.Vocab.Size(), m.Cfg.Dim
	total := 0
	for l := 1; l <= m.Cfg.Layers; l++ {
		ng, nq := g.Groups(l-1), q.Groups(l-1)
		total += ng + max(ng, nq) + 2*din + (g.Groups(l)+q.Groups(l))*dim
		if l > 1 {
			total += nq + din
		}
		din = dim
	}
	return total
}

// cross is the kernel behind Cross: L rounds of two-way attention over
// the previous level's groups and a GIN layer on each side, then the
// size-weighted mean readout of both. Every group of a side receives the
// same cross message (the softmax cancels a1·h_i; see the package
// comment), so it is computed once per side and layer; layer 1's message
// to g depends on q alone and comes from Bind.
func (ws *Workspace) cross(dst []float64, g *Compressed) {
	m, q := ws.m, ws.q
	base := ws.f.off
	din, dim := m.Cfg.Vocab.Size(), m.Cfg.Dim
	// hg/hq are the previous level's embeddings, row-major and din wide;
	// nil at level 0, where row i is the one-hot of Feature[i].
	var hg, hq []float64
	for l := 1; l <= m.Cfg.Layers; l++ {
		w, a2 := m.W[l-1].Data.Data, m.A2[l-1].Data.Data
		pg, pq := &g.Levels[l-1], &q.Levels[l-1]
		ng, nq := len(pg.Size), len(pq.Size)

		scores := ws.f.take(max(ng, nq))
		kg := keys(ws.f.take(ng), hg, pg.Feature, a2)
		muQ := ws.f.take(din)
		attend(muQ, kg, pg.LogSize, hg, pg.Feature, scores)
		muG := ws.qMu
		if l > 1 {
			kq := keys(ws.f.take(nq), hq, pq.Feature, a2)
			muG = ws.f.take(din)
			attend(muG, kq, pq.LogSize, hq, pq.Feature, scores)
		}

		pre := ws.f.take(din)
		lg, lq := &g.Levels[l], &q.Levels[l]
		nextG, nextQ := ws.f.take(len(lg.In)*dim), ws.f.take(len(lq.In)*dim)
		layer(nextG, hg, pg.Feature, muG, lg, w, pre)
		layer(nextQ, hq, pq.Feature, muQ, lq, w, pre)
		hg, hq, din = nextG, nextQ, dim
	}
	readout(dst[:dim], hg, g.Levels[m.Cfg.Layers].Size)
	readout(dst[dim:2*dim], hq, q.Levels[m.Cfg.Layers].Size)
	ws.f.off = base
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
// other is nil, the one-hots of feat. scores is scratch of len(key)
// floats or more.
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
		if alpha := e / sum; alpha != 0 {
			mu[feat[j]] += alpha
		}
	}
}

// layer computes one side's next level into next (len(lv.In) rows, Dim
// wide): aggregate the previous level over lv.In (dense rows of prev, or
// one-hots of prevFeat when prev is nil), add the side's cross message mu,
// multiply by w and apply ReLU. pre is scratch for one
// pre-activation row; its zero entries — most of a one-hot level's — are
// skipped in the product, which leaves every sum unchanged.
func layer(next, prev []float64, prevFeat []int, mu []float64, lv *Level, w, pre []float64) {
	d := len(pre)
	dim := len(w) / d
	for i, terms := range lv.In {
		for k := range pre {
			pre[k] = 0
		}
		for _, e := range terms {
			if prev == nil {
				pre[prevFeat[e.Row]] += e.W
				continue
			}
			mat.AddRowsScaled(pre, []float64{e.W}, prev[e.Row*d:], d)
		}
		for k, v := range mu {
			pre[k] += v
		}
		out := next[i*dim : (i+1)*dim]
		for j := range out {
			out[j] = 0
		}
		addNonzeroRows(out, pre, w)
		for j, v := range out {
			if v < 0 {
				out[j] = 0
			}
		}
	}
}

// addNonzeroRows adds x·w to dst (w's rows len(dst) wide) on
// mat.AddRowsScaled, one call per maximal run of non-zero entries of x.
// The zero entries — most of a one-hot level's pre-activation row — are
// skipped; from a +0 start that changes no sum
// (mat.TestAddRowsScaledAddsZeroRowsHarmlessly).
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
