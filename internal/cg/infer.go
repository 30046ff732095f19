package cg

import "math"

// Tape-free cross-graph inference on a Workspace. Routing and initial
// selection call the cross model hundreds of times per query against one
// query graph, so the inference path builds no autodiff tape, draws every
// temporary from the search's workspace, never multiplies by a one-hot
// matrix (level-0 embeddings are read as feature indices: a key score is
// a look-up in a, an aggregation term lands in one column) and skips the
// zero entries of a pre-activation row when multiplying by W. Each output
// element is still accumulated from zero over ascending k, so for finite
// weights the result equals the matrix kernels this replaced bit for bit
// (reference_test.go keeps those; TestInferKernelMatchesReference and
// FuzzInferMatchesReference compare with ==).

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
// computes what depends on q alone: the layer-1 attention keys of its
// level-0 groups.
func (ws *Workspace) Bind(m *CrossModel, q *Compressed) {
	ws.m, ws.q = m, q
	feat := q.Levels[0].Feature
	ws.qKey1 = lookupKeys(ws.qKey1[:0], m.A1[0].Data.Data, feat)
	ws.qKey2 = lookupKeys(ws.qKey2[:0], m.A2[0].Data.Data, feat)
}

// lookupKeys appends a[f] for every level-0 feature index: the key score
// of a one-hot row.
func lookupKeys(dst, a []float64, feat []int) []float64 {
	for _, f := range feat {
		dst = append(dst, a[f])
	}
	return dst
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
		if l == 1 {
			total += 2 * ng
		} else {
			total += 2 * (ng + nq)
		}
		total += (ng+nq)*din + max(ng, nq) + din
		total += (g.Groups(l) + q.Groups(l)) * dim
		din = dim
	}
	return total
}

// cross is the kernel behind Cross: L rounds of two-way attention over
// the previous level's groups and a GIN layer on each side, then the
// size-weighted mean readout of both.
func (ws *Workspace) cross(dst []float64, g *Compressed) {
	m, q := ws.m, ws.q
	base := ws.f.off
	din, dim := m.Cfg.Vocab.Size(), m.Cfg.Dim
	// hg/hq are the previous level's embeddings, row-major and din wide;
	// nil at level 0, where row i is the one-hot of Feature[i].
	var hg, hq []float64
	for l := 1; l <= m.Cfg.Layers; l++ {
		w := m.W[l-1].Data.Data
		a1, a2 := m.A1[l-1].Data.Data, m.A2[l-1].Data.Data
		pg, pq := &g.Levels[l-1], &q.Levels[l-1]
		ng, nq := len(pg.Size), len(pq.Size)

		var kg1, kg2, kq1, kq2 []float64
		if l == 1 {
			kg1 = lookupKeys(ws.f.take(ng)[:0], a1, pg.Feature)
			kg2 = lookupKeys(ws.f.take(ng)[:0], a2, pg.Feature)
			kq1, kq2 = ws.qKey1, ws.qKey2
		} else {
			kg1, kg2 = ws.f.take(ng), ws.f.take(ng)
			kq1, kq2 = ws.f.take(nq), ws.f.take(nq)
			denseKeys(kg1, kg2, hg, a1, a2)
			denseKeys(kq1, kq2, hq, a1, a2)
		}

		muG, muQ := ws.f.take(ng*din), ws.f.take(nq*din)
		scores := ws.f.take(max(ng, nq))
		attend(muG, kg1, kq2, pq.LogSize, hq, pq.Feature, din, scores)
		attend(muQ, kq1, kg2, pg.LogSize, hg, pg.Feature, din, scores)

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

// denseKeys computes the attention keys k1 = h*a1 and k2 = h*a2 of dense
// embedding rows (len(a1) wide).
func denseKeys(k1, k2, h, a1, a2 []float64) {
	d := len(a1)
	for i := range k1 {
		row := h[i*d : (i+1)*d]
		s1, s2 := 0.0, 0.0
		for k, v := range row {
			s1 += v * a1[k]
			s2 += v * a2[k]
		}
		k1[i], k2[i] = s1, s2
	}
}

// attend fills mu (len(selfKey) rows, d wide): row i is the softmax over
// the other side's groups of selfKey[i] + otherKey[j] + log|group j|,
// applied to the other side's embeddings — dense rows of other, or, when
// other is nil, the one-hots of otherFeat. scores is scratch for one row.
func attend(mu, selfKey, otherKey, otherLogSize, other []float64, otherFeat []int, d int, scores []float64) {
	for i := range mu {
		mu[i] = 0
	}
	scores = scores[:len(otherKey)]
	for i, base := range selfKey {
		maxScore := math.Inf(-1)
		for j, key := range otherKey {
			s := base + key + otherLogSize[j]
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
		murow := mu[i*d : (i+1)*d]
		for j, e := range scores {
			alpha := e / sum
			if alpha == 0 {
				continue
			}
			if other == nil {
				murow[otherFeat[j]] += alpha
				continue
			}
			for k, v := range other[j*d : (j+1)*d] {
				murow[k] += alpha * v
			}
		}
	}
}

// layer computes one side's next level into next (len(lv.In) rows, Dim
// wide): aggregate the previous level over lv.In (dense rows of prev, or
// one-hots of prevFeat when prev is nil), add the parent group's cross
// message, multiply by w and apply ReLU. pre is scratch for one
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
			for k, v := range prev[e.Row*d : (e.Row+1)*d] {
				pre[k] += e.W * v
			}
		}
		for k, v := range mu[lv.Parent[i]*d:][:d] {
			pre[k] += v
		}
		out := next[i*dim : (i+1)*dim]
		for j := range out {
			out[j] = 0
		}
		for k, a := range pre {
			if a == 0 {
				continue
			}
			for j, b := range w[k*dim:][:dim] {
				out[j] += a * b
			}
		}
		for j, v := range out {
			if v < 0 {
				out[j] = 0
			}
		}
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
	for i, s := range sizes {
		total += s
		for k, v := range h[i*d : (i+1)*d] {
			dst[k] += s * v
		}
	}
	for k := range dst {
		dst[k] /= total
	}
}
