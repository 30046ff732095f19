package cg

import (
	"fmt"
	"math"
	"math/rand"

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
// feeding Build inputs yields Definition 3. Its one forward is the kernel
// in infer.go: Workspace.Cross for queries, CrossPass for training.
type CrossModel struct {
	Cfg Config
	W   []*nn.Param // W[l]: d_{l-1} x Dim, l = 1..Layers
	// a = A1 || A2 of Eq. 6/10. The softmax cancels the A1 term, so no
	// forward reads A1; it stays registered so persisted models keep their
	// layout.
	A1 []*nn.Param
	A2 []*nn.Param
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

// GINModel is a plain GIN encoder (Sec. III-C, Eq. 1) over compressed (or
// raw) GNN-graphs: the CrossModel without the cross-attention term. It is
// used for offline graph embeddings (M_rk's current node, the L2route
// baseline). Its one forward is the kernel in infer.go: Embed for
// inference, GINPass for training.
type GINModel struct {
	Cfg Config
	W   []*nn.Param
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
