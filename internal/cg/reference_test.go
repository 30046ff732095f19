package cg

import (
	"math"

	"github.com/lansearch/lan/internal/mat"
)

// The inference path as it stood before the workspace kernels of
// infer.go replaced it: dense one-hot inputs, one plain triple loop
// (refProduct) per product, a fresh matrix per temporary and math.Log per
// attention row. It is the
// oracle the kernels are pinned to with == (TestInferKernelMatchesReference,
// FuzzInferMatchesReference, TestInferMatchesForward,
// TestGINEmbedMatchesForward) and the "before" side of BenchmarkCrossInfer.

// inferInput builds the dense one-hot level-0 feature matrix of c.
func inferInput(c *Compressed, vocabSize int) *mat.Matrix {
	lv := c.Levels[0]
	h := mat.New(len(lv.Feature), vocabSize)
	for i, f := range lv.Feature {
		h.Set(i, f, 1)
	}
	return h
}

// refEmbed computes the GIN embedding with the matrix kernels: the cross
// reference's layers without the cross message.
func refEmbed(m *GINModel, c *Compressed) []float64 {
	h := inferInput(c, m.Cfg.Vocab.Size())
	for l := 1; l <= m.Cfg.Layers; l++ {
		h = refInferLayer(h, nil, c.Levels[l], m.W[l-1].Data)
	}
	return refWeightedMean(h, c.Levels[m.Cfg.Layers].Size)
}

// refInfer computes the cross-graph embedding h_G || h_Q with the matrix
// kernels, one cross message per side per layer.
func refInfer(m *CrossModel, cgG, cgQ *Compressed) []float64 {
	hg := inferInput(cgG, m.Cfg.Vocab.Size())
	hq := inferInput(cgQ, m.Cfg.Vocab.Size())
	for l := 1; l <= m.Cfg.Layers; l++ {
		w := m.W[l-1].Data
		a2 := m.A2[l-1].Data
		lvG, lvQ := cgG.Levels[l], cgQ.Levels[l]
		szG, szQ := cgG.Levels[l-1].Size, cgQ.Levels[l-1].Size

		kg := refProduct(hg, a2)
		kq := refProduct(hq, a2)

		muG := refInferAttention(kq, hq, szQ)
		muQ := refInferAttention(kg, hg, szG)

		hg = refInferLayer(hg, muG, lvG, w)
		hq = refInferLayer(hq, muQ, lvQ, w)
	}
	outG := refWeightedMean(hg, cgG.Levels[m.Cfg.Layers].Size)
	outQ := refWeightedMean(hq, cgQ.Levels[m.Cfg.Layers].Size)
	return append(outG, outQ...)
}

// refInferAttention computes the one cross message a side receives: the
// softmax over the other side's groups of key + log size, then the
// weighted combination of its embeddings.
func refInferAttention(key, other *mat.Matrix, otherSize []float64) []float64 {
	mo := key.Rows
	mu := make([]float64, other.Cols)
	scores := make([]float64, mo)
	maxScore := math.Inf(-1)
	for j := 0; j < mo; j++ {
		scores[j] = key.At(j, 0) + math.Log(otherSize[j])
		if scores[j] > maxScore {
			maxScore = scores[j]
		}
	}
	sum := 0.0
	for j := range scores {
		scores[j] = math.Exp(scores[j] - maxScore)
		sum += scores[j]
	}
	for j := 0; j < mo; j++ {
		alpha := scores[j] / sum
		if alpha == 0 {
			continue
		}
		for k, v := range other.Row(j) {
			mu[k] += alpha * v
		}
	}
	return mu
}

// refInferLayer aggregates the previous level, adds the side's cross
// message to every row, multiplies by W and applies ReLU.
func refInferLayer(prev *mat.Matrix, mu []float64, lv Level, w *mat.Matrix) *mat.Matrix {
	n := len(lv.In)
	pre := mat.New(n, prev.Cols)
	for i := 0; i < n; i++ {
		row := pre.Row(i)
		for _, e := range lv.In[i] {
			src := prev.Row(e.Row)
			for k, v := range src {
				row[k] += e.W * v
			}
		}
		for k, v := range mu {
			row[k] += v
		}
	}
	out := refProduct(pre, w)
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		}
	}
	return out
}

func refWeightedMean(h *mat.Matrix, sizes []float64) []float64 {
	out := make([]float64, h.Cols)
	total := 0.0
	for i, s := range sizes {
		total += s
		row := h.Row(i)
		for k, v := range row {
			out[k] += s * v
		}
	}
	for k := range out {
		out[k] /= total
	}
	return out
}

// refProduct returns a * b by the plain triple loop, each element summed
// from zero over ascending k.
func refProduct(a, b *mat.Matrix) *mat.Matrix {
	out := mat.New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}
