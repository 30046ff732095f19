package graph

import (
	"fmt"
	"sort"
	"strings"
)

// WLLabeling holds the result of L iterations of Weisfeiler-Lehman labeling
// (Sec. III-C, Eq. 2-3). Labels[l][u] is an integer class id such that two
// nodes share a class at iteration l iff they have equal WL labels — and
// hence, by the GIN equivalence of [Xu et al. 2019], provably equal GIN
// embeddings at layer l.
//
// Class ids are dense per iteration, 0..Classes[l]-1, in the order of each
// class's first node (lowest id). They are only comparable within one
// graph's labeling; Hash is the cross-graph form.
type WLLabeling struct {
	// Labels[l][u] is the class of node u at iteration l, for l = 0..L.
	Labels [][]int
	// Classes[l] is the number of distinct classes at iteration l.
	Classes []int
}

// WL runs L iterations of Weisfeiler-Lehman labeling on g. Iteration 0 uses
// the node labels.
func WL(g *Graph, L int) *WLLabeling {
	out := &WLLabeling{}
	// Iteration 0: classes from raw labels.
	labels := make(map[string]int)
	cur := make([]int, g.N())
	for u := range cur {
		l := g.Label(u)
		id, ok := labels[l]
		if !ok {
			id = len(labels)
			labels[l] = id
		}
		cur[u] = id
	}
	out.Labels = append(out.Labels, cur)
	out.Classes = append(out.Classes, len(labels))

	var sb strings.Builder
	for l := 1; l <= L; l++ {
		dict := make(map[string]int)
		next := make([]int, g.N())
		for u := range next {
			sb.Reset()
			fmt.Fprintf(&sb, "%d|", cur[u])
			ns := make([]int, 0, g.Degree(u))
			for _, v := range g.Neighbors(u) {
				ns = append(ns, cur[v])
			}
			sort.Ints(ns)
			for _, c := range ns {
				fmt.Fprintf(&sb, "%d,", c)
			}
			key := sb.String()
			id, ok := dict[key]
			if !ok {
				id = len(dict)
				dict[key] = id
			}
			next[u] = id
		}
		cur = next
		out.Labels = append(out.Labels, next)
		out.Classes = append(out.Classes, len(dict))
	}
	return out
}

// Hash returns a canonical string for g that is invariant under node
// reordering: the sorted multiset of final WL labels, refined for L
// iterations, together with node and edge counts. Two isomorphic graphs
// always hash equal; unequal hashes certify non-isomorphism.
func Hash(g *Graph, L int) string {
	// Refine label strings bottom-up rather than WL's class ids, which are
	// only canonical within one WL call.
	strs := make([]string, g.N())
	for u := 0; u < g.N(); u++ {
		strs[u] = g.Label(u)
	}
	for l := 1; l <= L; l++ {
		next := make([]string, g.N())
		for u := 0; u < g.N(); u++ {
			ns := make([]string, 0, g.Degree(u))
			for _, v := range g.Neighbors(u) {
				ns = append(ns, strs[v])
			}
			sort.Strings(ns)
			next[u] = "(" + strs[u] + "|" + strings.Join(ns, ",") + ")"
		}
		strs = next
	}
	sort.Strings(strs)
	return fmt.Sprintf("n=%d;m=%d;%s", g.N(), g.M(), strings.Join(strs, ";"))
}
