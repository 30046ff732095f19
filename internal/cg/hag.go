package cg

import "sort"

// HAG is the comparison baseline of Sec. VI (Jia et al., KDD 2020): it
// leaves the GNN-graph uncompressed but eliminates redundant *additions*
// in neighborhood aggregation by introducing auxiliary sum nodes for
// frequently co-occurring source pairs. Because every original node still
// flows through W^l individually, HAG reduces AggEdges but neither
// AttnPairs nor MatmulRows — which is why it cannot speed up cross-graph
// learning. Fig. 12 counts that cost (AggEdges) rather than running the
// plan; TestHAGEquivalenceAndSavings checks that the plan aggregates what
// the raw GNN-graph does.
type HAG struct {
	// Base is the raw GNN-graph the plan optimizes.
	Base *Compressed
	// Aux[l] lists, per layer l >= 1, the auxiliary sum nodes to
	// prepend-compute over the previous level's rows; an aux combo may
	// reference earlier aux rows at indices >= Groups(l-1).
	Aux [][][]Lin
	// In[l] is the rewritten aggregation for layer l, whose Lin.Row may
	// reference aux rows.
	In [][][]Lin
}

// BuildHAG constructs a HAG aggregation plan for g with at most maxAux
// auxiliary nodes per layer, greedily extracting the most frequent
// unweighted source pair as in the original HAG search.
func BuildHAG(raw *Compressed, maxAux int) *HAG {
	h := &HAG{Base: raw}
	L := raw.Depth()
	h.Aux = make([][][]Lin, L+1)
	h.In = make([][][]Lin, L+1)
	for l := 1; l <= L; l++ {
		in := make([][]Lin, len(raw.Levels[l].In))
		for i, terms := range raw.Levels[l].In {
			in[i] = append([]Lin(nil), terms...)
		}
		var aux [][]Lin
		base := raw.Groups(l - 1)
		for len(aux) < maxAux {
			pair, count := mostFrequentPair(in)
			if count < 2 {
				break
			}
			auxRow := base + len(aux)
			aux = append(aux, []Lin{{Row: pair[0], W: 1}, {Row: pair[1], W: 1}})
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
func mostFrequentPair(in [][]Lin) ([2]int, int) {
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
func substitutePair(terms []Lin, pair [2]int, auxRow int) []Lin {
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
	out := make([]Lin, 0, len(terms)-1)
	for i, t := range terms {
		if i != i0 && i != i1 {
			out = append(out, t)
		}
	}
	return append(out, Lin{Row: auxRow, W: 1})
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
