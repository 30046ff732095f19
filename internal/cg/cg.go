// Package cg implements the paper's Sec. VI: GNN-graphs, the compressed
// GNN-graph (CG, Definition 2, built by WL labeling per Algorithm 5), and
// cross-graph learning over CGs (Definition 3). The raw GNN-graph of
// Sec. III-D is represented as the trivial compression in which every node
// is its own group, so a single forward implementation covers both
// Definition 1 (raw cross-graph learning) and Definition 3 (compressed),
// and Theorem 2's equality can be checked directly.
//
// Note on fidelity: Definition 3's attention (Eq. 10) keys on the
// aggregated message t rather than the previous-layer embedding; taken
// literally that breaks the equality claimed by Theorem 2 against
// Definition 1 (Eq. 6), which keys on h^{l-1}. We follow the theorem:
// attention is keyed on previous-level embeddings, computed once per
// previous-level group and shared by all its refinements — this preserves
// the complexity bound of Theorem 3.
//
// A second note: the attention score a1·h_i + a2·h_j + log|g_j| has no
// non-linearity around it, so the softmax over j cancels the a1·h_i term —
// every group of one side receives the same cross message. The forward
// computes it as what it equals, one softmax of a2·h_j + log|g_j| per side
// per layer, and never reads A1 (TestCrossModelDoesNotReadA1,
// TestCrossAttentionMatchesPaper; DESIGN.md "Deviations" 7).
package cg

import (
	"math"
	"slices"
	"sort"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/mat"
)

// Vocab maps node labels to dense feature indices. Labels not present when
// the vocabulary was built share a single out-of-vocabulary bucket.
type Vocab struct {
	index map[string]int
	size  int
}

// NewVocab builds a vocabulary from the labels occurring in db, plus one
// out-of-vocabulary bucket.
func NewVocab(db graph.Database) *Vocab {
	set := make(map[string]bool)
	for _, g := range db {
		for _, l := range g.Labels() {
			set[l] = true
		}
	}
	labels := make([]string, 0, len(set))
	for l := range set {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	v := &Vocab{index: make(map[string]int, len(labels))}
	for i, l := range labels {
		v.index[l] = i
	}
	v.size = len(labels) + 1 // +1 OOV bucket
	return v
}

// Labels returns the vocabulary's labels in index order (excluding the
// OOV bucket).
func (v *Vocab) Labels() []string {
	out := make([]string, v.size-1)
	for l, i := range v.index {
		out[i] = l
	}
	return out
}

// Size returns the one-hot dimension (#labels + 1 OOV).
func (v *Vocab) Size() int { return v.size }

// Index returns the feature index of label (OOV bucket if unseen).
func (v *Vocab) Index(label string) int {
	if i, ok := v.index[label]; ok {
		return i
	}
	return v.size - 1
}

// Compressed is a compressed GNN-graph: L+1 levels of node groups with
// weighted aggregation edges between consecutive levels.
type Compressed struct {
	Levels []Level
	// N is the number of nodes of the underlying graph (readout
	// normalization and Theorem 2 bookkeeping).
	N int
}

// Level holds the groups at one level of a compressed GNN-graph.
type Level struct {
	// Size[i] is |g| — how many original nodes group i contains.
	Size []float64
	// LogSize[i] is log(Size[i]), the term that folds the |g| weights of
	// Eq. 10 into a plain softmax; inference reads it once per attention
	// score, so it is computed here, once per graph.
	LogSize []float64
	// Feature[i] is the label feature index of group i (level 0 only).
	Feature []int
	// In[i] lists the weighted aggregation edges from previous-level
	// groups into group i (levels >= 1), including the GIN self term.
	In [][]Lin
}

// Lin is one weighted aggregation edge: weight W applied to row Row of
// the previous level. It is mat.Term, so the kernel hands a group's edges
// to mat.GatherRows as they are.
type Lin = mat.Term

// zeroLogs is the LogSize of every level made of singleton groups — all of
// a raw GNN-graph's, and most levels of a compressed one past level 0. It
// is shared and read-only: ~100 bytes per level add up over a cached
// database.
var zeroLogs [64]float64

// logSizes returns log(size[i]) for the groups of one level of a graph of
// n nodes. The groups partition the nodes, so they are all singletons
// exactly when there are n of them.
func logSizes(size []float64, n int) []float64 {
	if ng := len(size); ng == n && ng <= len(zeroLogs) {
		return zeroLogs[:ng:ng]
	}
	out := make([]float64, len(size))
	for i, s := range size {
		out[i] = math.Log(s)
	}
	return out
}

// Groups returns the number of groups at level l.
func (c *Compressed) Groups(l int) int { return len(c.Levels[l].Size) }

// Depth returns L, the number of convolution layers the CG supports.
func (c *Compressed) Depth() int { return len(c.Levels) - 1 }

// Build constructs the compressed GNN-graph of g for an L-layer GNN by WL
// labeling (Algorithm 5). Theorem 4: grouping by WL classes is the optimum
// grouping that preserves embedding equality. WL numbers one graph's
// classes densely in first-seen order, so its classes are the groups.
func Build(g *graph.Graph, L int, vocab *Vocab) *Compressed {
	wl := graph.WL(g, L)
	return assemble(g, vocab, wl.Labels, wl.Classes)
}

// BuildRaw constructs the uncompressed GNN-graph of g (Sec. III-D) in the
// same representation: every node is its own group at every level. Forward
// passes over it implement Definition 1 exactly.
func BuildRaw(g *graph.Graph, L int, vocab *Vocab) *Compressed {
	self := make([]int, g.N())
	for u := range self {
		self[u] = u
	}
	groupOf, groups := make([][]int, L+1), make([]int, L+1)
	for l := range groupOf {
		groupOf[l], groups[l] = self, g.N()
	}
	return assemble(g, vocab, groupOf, groups)
}

// assemble builds the levels of g's GNN-graph from a grouping of its
// nodes: groupOf[l][u] is node u's group at level l, numbered
// 0..groups[l]-1 in the order of each group's first node. A group's
// in-edges are its first node's, per Algorithm 5: |N(u) ∩ group| for each
// previous-level group, +1 for u's own group (the GIN self term).
func assemble(g *graph.Graph, vocab *Vocab, groupOf [][]int, groups []int) *Compressed {
	n := g.N()
	c := &Compressed{N: n, Levels: make([]Level, len(groupOf))}
	var rows []int
	var ins []Lin
	for l, of := range groupOf {
		lv := &c.Levels[l]
		lv.Size = make([]float64, groups[l])
		rep := make([]int, groups[l]) // a group's first node
		for u, gi := range of {
			if lv.Size[gi] == 0 {
				rep[gi] = u
			}
			lv.Size[gi]++
		}
		lv.LogSize = logSizes(lv.Size, n)
		if l == 0 {
			lv.Feature = make([]int, len(rep))
			for i, u := range rep {
				lv.Feature[i] = vocab.Index(g.Label(u))
			}
			continue
		}
		prev := groupOf[l-1]
		lv.In = make([][]Lin, len(rep))
		for i, u := range rep {
			rows = append(rows[:0], prev[u])
			for _, v := range g.Neighbors(u) {
				rows = append(rows, prev[v])
			}
			sort.Ints(rows)
			ins = ins[:0]
			for j, r := range rows {
				if j > 0 && r == rows[j-1] {
					ins[len(ins)-1].W++
				} else {
					ins = append(ins, Lin{Row: r, W: 1})
				}
			}
			lv.In[i] = slices.Clone(ins)
		}
	}
	return c
}

// Cost summarizes the work of one cross-graph forward pass in the units of
// Theorem 3: aggregation edges, attention pairs, and transformed rows.
type Cost struct {
	// AggEdges is Σ_l |E_l| over both CGs: weighted-sum terms in Eq. 8.
	AggEdges int
	// AttnPairs is Σ_l |V_{l-1}(G*)| x |V_{l-1}(Q*)|, both directions:
	// the attention scores of Eq. 10 as Theorem 3 counts them. The kernel
	// pays |V_{l-1}(G*)| + |V_{l-1}(Q*)| scores per layer, because the
	// softmax cancels the group's own term.
	AttnPairs int
	// MatmulRows is Σ_l (|V_l(G*)| + |V_l(Q*)|): rows multiplied by W^l,
	// the bottleneck HAG cannot reduce.
	MatmulRows int
}

// CrossCost returns the Theorem-3 cost of cross-graph learning between two
// compressed (or raw) GNN-graphs: the paper's count, not the kernel's
// work. It counts |V_{l-1}(G*)|·|V_{l-1}(Q*)| attention pairs each way
// and every aggregation term and matmul row, where the kernel pays one
// attention row per side per layer (the softmax cancels the group's own
// term) and skips the zero entries of a one-hot level's pre-activation
// rows in the product by W. A figure that asserts on the work done needs
// the kernel's own count.
func CrossCost(a, b *Compressed) Cost {
	var c Cost
	L := a.Depth()
	for l := 1; l <= L; l++ {
		for _, ins := range a.Levels[l].In {
			c.AggEdges += len(ins)
		}
		for _, ins := range b.Levels[l].In {
			c.AggEdges += len(ins)
		}
		c.AttnPairs += 2 * a.Groups(l-1) * b.Groups(l-1)
		c.MatmulRows += a.Groups(l) + b.Groups(l)
	}
	return c
}

// Total returns a single comparable scalar: the sum of all cost terms.
func (c Cost) Total() int { return c.AggEdges + c.AttnPairs + c.MatmulRows }
