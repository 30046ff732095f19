package models

import (
	"math"
	"sort"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/cg"
	"github.com/lansearch/lan/internal/mat"
	"github.com/lansearch/lan/internal/nn"
	"github.com/lansearch/lan/internal/order"
	"github.com/lansearch/lan/internal/pg"
	"github.com/lansearch/lan/internal/route"
)

// The inference path of M_rk and M_nh as it stood before the workspace:
// the matrix-kernel cross network, one cross message per side per layer
// (the same oracle as
// internal/cg/reference_test.go, repeated here because test files do not
// cross packages), MLP heads on mat.MulInto, one head input per score and
// a ranker that scores every neighbour from scratch on every call. The
// identity tests pin the workspace path to it with ==, and
// BenchmarkRankerCallReference is the "before" of BenchmarkRankerCall.

func refCrossInfer(m *cg.CrossModel, cgG, cgQ *cg.Compressed) []float64 {
	hg := refInferInput(cgG, m.Cfg.Vocab.Size())
	hq := refInferInput(cgQ, m.Cfg.Vocab.Size())
	for l := 1; l <= m.Cfg.Layers; l++ {
		w := m.W[l-1].Data
		a2 := m.A2[l-1].Data
		lvG, lvQ := cgG.Levels[l], cgQ.Levels[l]
		szG, szQ := cgG.Levels[l-1].Size, cgQ.Levels[l-1].Size

		kg := mat.Mul(hg, a2)
		kq := mat.Mul(hq, a2)

		muG := refInferAttention(kq, hq, szQ)
		muQ := refInferAttention(kg, hg, szG)

		hg = refInferLayer(hg, muG, lvG, w)
		hq = refInferLayer(hq, muQ, lvQ, w)
	}
	outG := refWeightedMean(hg, cgG.Levels[m.Cfg.Layers].Size)
	outQ := refWeightedMean(hq, cgQ.Levels[m.Cfg.Layers].Size)
	return append(outG, outQ...)
}

func refInferInput(c *cg.Compressed, vocabSize int) *mat.Matrix {
	lv := c.Levels[0]
	h := mat.New(len(lv.Feature), vocabSize)
	for i, f := range lv.Feature {
		h.Set(i, f, 1)
	}
	return h
}

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

func refInferLayer(prev *mat.Matrix, mu []float64, lv cg.Level, w *mat.Matrix) *mat.Matrix {
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

// refMLPInfer runs an MLP on x (N x sizes[0]) with the matrix kernels.
func refMLPInfer(m *nn.MLP, x *mat.Matrix) *mat.Matrix {
	cur := x
	for i, l := range m.Layers {
		next := mat.Mul(cur, l.W.Data)
		bias := l.B.Data.Row(0)
		for r := 0; r < next.Rows; r++ {
			row := next.Row(r)
			for j, b := range bias {
				row[j] += b
			}
		}
		if i < len(m.Layers)-1 {
			for j, v := range next.Data {
				if v < 0 {
					next.Data[j] = 0
				}
			}
		}
		cur = next
	}
	return cur
}

func refHeadFeatureVec(cross []float64, dim int) []float64 {
	out := make([]float64, 0, len(cross)+dim)
	out = append(out, cross...)
	for i := 0; i < dim; i++ {
		d := cross[i] - cross[dim+i]
		out = append(out, d*d)
	}
	return out
}

// refProbCG is M_nh's membership probability on the matrix kernels.
func refProbCG(m *NeighborhoodModel, g *graph.Graph, qc *cg.Compressed) float64 {
	cross := refCrossInfer(m.cross, m.store.For(g), qc)
	feat := refHeadFeatureVec(cross, m.Cfg.Dim)
	return sigmoid(refMLPInfer(m.head, mat.FromSlice(1, len(feat), feat)).At(0, 0))
}

// refScore is M_rk's neighbour score on the matrix kernels: the cross
// network and every head's full forward, for every call.
func refScore(r *NeighborRanker, qc *cg.Compressed, neighbor *graph.Graph, nodeEmb []float64) float64 {
	return refHeadSum(r, refCrossInfer(r.cross, r.store.For(neighbor), qc), nodeEmb)
}

// refHeadSum is the heads' part of refScore.
func refHeadSum(r *NeighborRanker, cross, nodeEmb []float64) float64 {
	in := mat.FromSlice(1, len(cross)+len(nodeEmb), append(append([]float64(nil), cross...), nodeEmb...))
	s := 0.0
	for _, h := range r.heads {
		out := refMLPInfer(h, in)
		s += sigmoid(out.At(0, 0))
	}
	return s
}

// refRanker is the router adapter without a memo or a workspace.
func refRanker(r *NeighborRanker, store pg.GraphStore, qc *cg.Compressed) route.Ranker {
	var fetched []*graph.Graph
	return route.RankerFunc(func(node int, neighbors []int, dCurrent float64) [][]int {
		if dCurrent > r.Cfg.GammaStar || len(neighbors) <= 1 {
			return route.SplitBatches(append([]int(nil), neighbors...), 100)
		}
		type scored struct {
			id    int
			score float64
		}
		nodeEmb := r.nodeEmbeddingByID(store, node)
		fetched = store.FetchGraphs(neighbors, fetched[:0])
		ss := make([]scored, len(neighbors))
		for i, nb := range neighbors {
			ss[i] = scored{id: nb, score: refScore(r, qc, fetched[i], nodeEmb)}
		}
		sort.SliceStable(ss, func(i, j int) bool {
			return order.ByScoreThenID(ss[i].score, ss[i].id, ss[j].score, ss[j].id)
		})
		ranked := make([]int, len(ss))
		for i, s := range ss {
			ranked[i] = s.id
		}
		return route.SplitBatches(ranked, r.Cfg.BatchPercent)
	})
}
