package cg

import (
	"math"

	"github.com/lansearch/lan/internal/mat"
)

// The inference path as it stood before the workspace kernels of
// infer.go replaced it: dense one-hot inputs, one mat.Mul per product, a
// fresh matrix per temporary and math.Log per attention row. It is the
// oracle the kernels are pinned to with == (TestInferKernelMatchesReference,
// FuzzInferMatchesReference) and the "before" side of BenchmarkCrossInfer.

// refInfer computes the cross-graph embedding h_G || h_Q with the matrix
// kernels.
func refInfer(m *CrossModel, cgG, cgQ *Compressed) []float64 {
	hg := inferInput(cgG, m.Cfg.Vocab.Size())
	hq := inferInput(cgQ, m.Cfg.Vocab.Size())
	for l := 1; l <= m.Cfg.Layers; l++ {
		w := m.W[l-1].Data
		a1 := m.A1[l-1].Data
		a2 := m.A2[l-1].Data
		lvG, lvQ := cgG.Levels[l], cgQ.Levels[l]
		szG, szQ := cgG.Levels[l-1].Size, cgQ.Levels[l-1].Size

		kg1 := mat.Mul(hg, a1)
		kg2 := mat.Mul(hg, a2)
		kq1 := mat.Mul(hq, a1)
		kq2 := mat.Mul(hq, a2)

		muG := refInferAttention(kg1, kq2, hq, szQ)
		muQ := refInferAttention(kq1, kg2, hg, szG)

		hg = refInferLayer(hg, muG, lvG, w)
		hq = refInferLayer(hq, muQ, lvQ, w)
	}
	outG := refWeightedMean(hg, cgG.Levels[m.Cfg.Layers].Size)
	outQ := refWeightedMean(hq, cgQ.Levels[m.Cfg.Layers].Size)
	return append(outG, outQ...)
}

// refInferAttention computes mu rows: softmax over the other side's groups
// with size weights, then the weighted combination of its embeddings.
func refInferAttention(selfKey, otherKey *mat.Matrix, other *mat.Matrix, otherSize []float64) *mat.Matrix {
	n := selfKey.Rows
	mo := otherKey.Rows
	mu := mat.New(n, other.Cols)
	logw := make([]float64, mo)
	for j, s := range otherSize {
		logw[j] = math.Log(s)
	}
	scores := make([]float64, mo)
	for i := 0; i < n; i++ {
		base := selfKey.At(i, 0)
		maxScore := math.Inf(-1)
		for j := 0; j < mo; j++ {
			scores[j] = base + otherKey.At(j, 0) + logw[j]
			if scores[j] > maxScore {
				maxScore = scores[j]
			}
		}
		sum := 0.0
		for j := range scores {
			scores[j] = math.Exp(scores[j] - maxScore)
			sum += scores[j]
		}
		murow := mu.Row(i)
		for j := 0; j < mo; j++ {
			alpha := scores[j] / sum
			if alpha == 0 {
				continue
			}
			orow := other.Row(j)
			for k, v := range orow {
				murow[k] += alpha * v
			}
		}
	}
	return mu
}

// refInferLayer aggregates the previous level, adds the parent's cross
// message, multiplies by W and applies ReLU.
func refInferLayer(prev, mu *mat.Matrix, lv Level, w *mat.Matrix) *mat.Matrix {
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
		murow := mu.Row(lv.Parent[i])
		for k, v := range murow {
			row[k] += v
		}
	}
	out := mat.Mul(pre, w)
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
