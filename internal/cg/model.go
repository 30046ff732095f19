package cg

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/lansearch/lan/internal/autograd"
	"github.com/lansearch/lan/internal/mat"
	"github.com/lansearch/lan/internal/nn"
)

// Config describes the shape of a (cross-)graph network.
type Config struct {
	// Layers is L, the number of graph convolution layers.
	Layers int
	// Dim is the hidden embedding dimension of every layer l >= 1.
	Dim int
	// Vocab provides the level-0 one-hot input features.
	Vocab *Vocab
}

// CrossDim returns the dimension of a cross-graph embedding h_G || h_Q.
func (c Config) CrossDim() int { return 2 * c.Dim }

// CrossModel is the GMN-style cross-graph network of Sec. III-E: at every
// layer each node aggregates its (compressed) graph neighborhood (Eq. 4/8)
// and attends over all nodes of the other graph (Eq. 5-6 / 9-10). It runs
// on Compressed inputs; feeding BuildRaw inputs yields Definition 1 and
// feeding Build inputs yields Definition 3.
type CrossModel struct {
	Cfg Config
	W   []*autograd.Value // W[l]: d_{l-1} x Dim, l = 1..Layers
	// a = A1 || A2 of Eq. 6/10. The softmax cancels the A1 term, so no
	// forward reads A1; it stays registered so persisted models keep their
	// layout.
	A1 []*autograd.Value
	A2 []*autograd.Value
}

// NewCrossModel registers the model's parameters under prefix.
func NewCrossModel(p *nn.Params, prefix string, cfg Config, rng *rand.Rand) *CrossModel {
	if cfg.Layers < 1 || cfg.Dim < 1 || cfg.Vocab == nil {
		panic(fmt.Sprintf("cg: bad config %+v", cfg))
	}
	m := &CrossModel{Cfg: cfg}
	din := cfg.Vocab.Size()
	for l := 1; l <= cfg.Layers; l++ {
		std := math.Sqrt(2.0 / float64(din+cfg.Dim))
		m.W = append(m.W, p.Add(fmt.Sprintf("%s.W%d", prefix, l), mat.Randn(din, cfg.Dim, std, rng)))
		m.A1 = append(m.A1, p.Add(fmt.Sprintf("%s.a1_%d", prefix, l), mat.Randn(din, 1, std, rng)))
		m.A2 = append(m.A2, p.Add(fmt.Sprintf("%s.a2_%d", prefix, l), mat.Randn(din, 1, std, rng)))
		din = cfg.Dim
	}
	return m
}

// inputFeatures is the constant level-0 one-hot feature matrix of c, kept
// as feature indices: the ops that read it (MatMul, LinearCombRows) look
// rows up instead of multiplying by zeros, as inference does.
func inputFeatures(t *autograd.Tape, c *Compressed, vocabSize int) *autograd.Value {
	return t.OneHot(c.Levels[0].Feature, vocabSize)
}

// logSizeRow wraps a level's LogSize as the constant 1xN row that folds
// the |q| weights of Eq. 10 into a plain softmax. The slice is shared, not
// copied: constants are never written.
func logSizeRow(t *autograd.Tape, logSize []float64) *autograd.Value {
	return t.Const(&mat.Matrix{Rows: 1, Cols: len(logSize), Data: logSize})
}

// Forward computes the cross-graph embedding h_G || h_Q (1 x 2*Dim) of two
// compressed (or raw) GNN-graphs, recording on t. Theorem 2: the result is
// identical for Build(g) and BuildRaw(g) inputs.
func (m *CrossModel) Forward(t *autograd.Tape, cgG, cgQ *Compressed) *autograd.Value {
	if cgG.Depth() < m.Cfg.Layers || cgQ.Depth() < m.Cfg.Layers {
		panic(fmt.Sprintf("cg: CG depth %d/%d < model layers %d", cgG.Depth(), cgQ.Depth(), m.Cfg.Layers))
	}
	hg := inputFeatures(t, cgG, m.Cfg.Vocab.Size())
	hq := inputFeatures(t, cgQ, m.Cfg.Vocab.Size())
	for l := 1; l <= m.Cfg.Layers; l++ {
		muG, muQ := m.attend(t, l, hg, hq, cgG, cgQ)

		// Aggregate (Eq. 8), add the side's cross message, transform,
		// activate (Eq. 7).
		tG := t.LinearCombRows(hg, cgG.Levels[l].In)
		tQ := t.LinearCombRows(hq, cgQ.Levels[l].In)
		hg, hq = m.transform(t, l, tG, tQ, muG, muQ)
	}
	return m.readout(t, hg, hq, cgG, cgQ)
}

// attend computes layer l's cross messages, one 1xd row per side:
// attention over the other side's previous-level groups (Eq. 9-10 with
// group-size weights folded into the softmax as log terms). The score of
// group i over group j is a1·h_i + a2·h_j + log|g_j|, and the softmax
// over j cancels a1·h_i, so every group of a side receives the same
// message: the softmax of a2·h_j + log|g_j| applied to the other side's
// rows. A1 is never read.
func (m *CrossModel) attend(t *autograd.Tape, l int, hg, hq *autograd.Value, cgG, cgQ *Compressed) (muG, muQ *autograd.Value) {
	a2 := m.A2[l-1]
	logG, logQ := cgG.Levels[l-1].LogSize, cgQ.Levels[l-1].LogSize

	kg := t.Transpose(t.MatMul(hg, a2))
	kq := t.Transpose(t.MatMul(hq, a2))

	muG = t.MatMul(t.SoftmaxRows(t.Add(kq, logSizeRow(t, logQ))), hq)
	muQ = t.MatMul(t.SoftmaxRows(t.Add(kg, logSizeRow(t, logG))), hg)
	return muG, muQ
}

// transform finishes layer l from each side's aggregation: add the side's
// cross message to every row, multiply by W, activate (Eq. 7).
func (m *CrossModel) transform(t *autograd.Tape, l int, tG, tQ, muG, muQ *autograd.Value) (hg, hq *autograd.Value) {
	w := m.W[l-1]
	preG := t.AddRowBroadcast(tG, muG)
	preQ := t.AddRowBroadcast(tQ, muQ)
	return t.ReLU(t.MatMul(preG, w)), t.ReLU(t.MatMul(preQ, w))
}

// readout is the weighted mean over the last level of both sides (group
// sizes restore the per-node mean of Definition 1), side by side.
func (m *CrossModel) readout(t *autograd.Tape, hg, hq *autograd.Value, cgG, cgQ *Compressed) *autograd.Value {
	outG := t.WeightedMeanRows(hg, cgG.Levels[m.Cfg.Layers].Size)
	outQ := t.WeightedMeanRows(hq, cgQ.Levels[m.Cfg.Layers].Size)
	return t.ConcatCols(outG, outQ)
}

// GINModel is a plain GIN encoder (Sec. III-C, Eq. 1) over compressed (or
// raw) GNN-graphs: the CrossModel without the cross-attention term. It is
// used for offline graph embeddings (clustering, the L2route baseline).
type GINModel struct {
	Cfg Config
	W   []*autograd.Value
}

// NewGINModel registers a GIN encoder's parameters under prefix.
func NewGINModel(p *nn.Params, prefix string, cfg Config, rng *rand.Rand) *GINModel {
	if cfg.Layers < 1 || cfg.Dim < 1 || cfg.Vocab == nil {
		panic(fmt.Sprintf("cg: bad config %+v", cfg))
	}
	m := &GINModel{Cfg: cfg}
	din := cfg.Vocab.Size()
	for l := 1; l <= cfg.Layers; l++ {
		std := math.Sqrt(2.0 / float64(din+cfg.Dim))
		m.W = append(m.W, p.Add(fmt.Sprintf("%s.W%d", prefix, l), mat.Randn(din, cfg.Dim, std, rng)))
		din = cfg.Dim
	}
	return m
}

// Forward computes the graph embedding h_G (1 x Dim), recording on t.
func (m *GINModel) Forward(t *autograd.Tape, c *Compressed) *autograd.Value {
	h := inputFeatures(t, c, m.Cfg.Vocab.Size())
	for l := 1; l <= m.Cfg.Layers; l++ {
		agg := t.LinearCombRows(h, c.Levels[l].In)
		h = t.ReLU(t.MatMul(agg, m.W[l-1]))
	}
	return t.WeightedMeanRows(h, c.Levels[m.Cfg.Layers].Size)
}

// inferInput builds the one-hot level-0 feature matrix of c for the
// tape-free GIN paths.
func inferInput(c *Compressed, vocabSize int) *mat.Matrix {
	lv := c.Levels[0]
	h := mat.New(len(lv.Feature), vocabSize)
	for i, f := range lv.Feature {
		h.Set(i, f, 1)
	}
	return h
}

// Embed computes the embedding without building an autodiff tape (the
// inference path; equals Forward's output).
func (m *GINModel) Embed(c *Compressed) []float64 {
	h := inferInput(c, m.Cfg.Vocab.Size())
	for l := 1; l <= m.Cfg.Layers; l++ {
		lv := c.Levels[l]
		pre := mat.New(len(lv.In), h.Cols)
		for i := range lv.In {
			row := pre.Row(i)
			for _, e := range lv.In[i] {
				src := h.Row(e.Row)
				for k, v := range src {
					row[k] += e.W * v
				}
			}
		}
		h = mat.Mul(pre, m.W[l-1].Data)
		for i, v := range h.Data {
			if v < 0 {
				h.Data[i] = 0
			}
		}
	}
	out := make([]float64, h.Cols)
	readout(out, h.Data, c.Levels[m.Cfg.Layers].Size)
	return out
}
