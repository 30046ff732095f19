package cg

import (
	"sort"

	"github.com/lansearch/lan/internal/autograd"
)

// HAG is the comparison baseline of Sec. VI (Jia et al., KDD 2020): it
// leaves the GNN-graph uncompressed but eliminates redundant *additions*
// in neighborhood aggregation by introducing auxiliary sum nodes for
// frequently co-occurring source pairs. Because every original node still
// flows through W^l individually, HAG reduces AggEdges but neither
// AttnPairs nor MatmulRows — which is why it cannot speed up cross-graph
// learning (Fig. 12).
type HAG struct {
	// Base is the raw GNN-graph the plan optimizes.
	Base *Compressed
	// Aux[l] lists, per layer l >= 1, the auxiliary sum nodes to
	// prepend-compute over the previous level's rows; an aux combo may
	// reference earlier aux rows at indices >= Groups(l-1).
	Aux [][][]autograd.Lin
	// In[l] is the rewritten aggregation for layer l, whose Lin.Row may
	// reference aux rows.
	In [][][]autograd.Lin
}

// BuildHAG constructs a HAG aggregation plan for g with at most maxAux
// auxiliary nodes per layer, greedily extracting the most frequent
// unweighted source pair as in the original HAG search.
func BuildHAG(raw *Compressed, maxAux int) *HAG {
	h := &HAG{Base: raw}
	L := raw.Depth()
	h.Aux = make([][][]autograd.Lin, L+1)
	h.In = make([][][]autograd.Lin, L+1)
	for l := 1; l <= L; l++ {
		in := make([][]autograd.Lin, len(raw.Levels[l].In))
		for i, terms := range raw.Levels[l].In {
			in[i] = append([]autograd.Lin(nil), terms...)
		}
		var aux [][]autograd.Lin
		base := raw.Groups(l - 1)
		for len(aux) < maxAux {
			pair, count := mostFrequentPair(in)
			if count < 2 {
				break
			}
			auxRow := base + len(aux)
			aux = append(aux, []autograd.Lin{{Row: pair[0], W: 1}, {Row: pair[1], W: 1}})
			for i, terms := range in {
				in[i] = substitutePair(terms, pair, auxRow)
			}
		}
		h.Aux[l] = aux
		h.In[l] = in
	}
	return h
}

// mostFrequentPair finds the unordered pair of unit-weight sources that
// co-occurs in the most aggregation lists.
func mostFrequentPair(in [][]autograd.Lin) ([2]int, int) {
	counts := make(map[[2]int]int)
	for _, terms := range in {
		var rows []int
		for _, t := range terms {
			if t.W == 1 {
				rows = append(rows, t.Row)
			}
		}
		sort.Ints(rows)
		for i := 0; i < len(rows); i++ {
			for j := i + 1; j < len(rows); j++ {
				counts[[2]int{rows[i], rows[j]}]++
			}
		}
	}
	var best [2]int
	bestCount := 0
	for p, c := range counts {
		if c > bestCount || (c == bestCount && (p[0] < best[0] || (p[0] == best[0] && p[1] < best[1]))) {
			best, bestCount = p, c
		}
	}
	return best, bestCount
}

// substitutePair rewrites terms to use auxRow in place of the two
// unit-weight sources pair[0], pair[1] when both are present.
func substitutePair(terms []autograd.Lin, pair [2]int, auxRow int) []autograd.Lin {
	i0, i1 := -1, -1
	for i, t := range terms {
		if t.W == 1 {
			if t.Row == pair[0] {
				i0 = i
			} else if t.Row == pair[1] {
				i1 = i
			}
		}
	}
	if i0 == -1 || i1 == -1 {
		return terms
	}
	out := make([]autograd.Lin, 0, len(terms)-1)
	for i, t := range terms {
		if i != i0 && i != i1 {
			out = append(out, t)
		}
	}
	return append(out, autograd.Lin{Row: auxRow, W: 1})
}

// AggEdges returns the aggregation additions of the plan (aux construction
// included), comparable with Cost.AggEdges of the unoptimized graph.
func (h *HAG) AggEdges() int {
	total := 0
	for l := 1; l <= h.Base.Depth(); l++ {
		for _, a := range h.Aux[l] {
			total += len(a)
		}
		for _, terms := range h.In[l] {
			total += len(terms)
		}
	}
	return total
}

// Aggregate computes layer l's aggregation t over prev (the previous
// level's embeddings) honoring the plan's auxiliary nodes.
func (h *HAG) Aggregate(t *autograd.Tape, l int, prev *autograd.Value) *autograd.Value {
	full := prev
	// Aux combos may reference earlier aux rows, so extend one at a time.
	for _, combo := range h.Aux[l] {
		auxRow := t.LinearCombRows(full, [][]autograd.Lin{combo})
		full = t.ConcatRows(full, auxRow)
	}
	return t.LinearCombRows(full, h.In[l])
}

// ForwardCross runs the cross-graph model m over two HAG plans; the result
// equals m.Forward over the underlying raw GNN-graphs.
func ForwardCross(t *autograd.Tape, m *CrossModel, hg, hq *HAG) *autograd.Value {
	cgG, cgQ := hg.Base, hq.Base
	vg := inputFeatures(t, cgG, m.Cfg.Vocab.Size())
	vq := inputFeatures(t, cgQ, m.Cfg.Vocab.Size())
	for l := 1; l <= m.Cfg.Layers; l++ {
		muG, muQ := m.attend(t, l, vg, vq, cgG, cgQ)
		tG := hg.Aggregate(t, l, vg)
		tQ := hq.Aggregate(t, l, vq)
		vg, vq = m.transform(t, l, tG, tQ, muG, muQ)
	}
	return m.readout(t, vg, vq, cgG, cgQ)
}
