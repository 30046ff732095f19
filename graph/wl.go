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
// Class ids are canonical per (graph set, iteration): they are assigned by
// first occurrence of the underlying WL string, so labelings computed by a
// single call are comparable across the graphs passed to that call.
type WLLabeling struct {
	// Labels[l][u] is the class of node u at iteration l, for l = 0..L.
	Labels [][]int
	// Classes[l] is the number of distinct classes at iteration l.
	Classes []int
}

// WL runs L iterations of Weisfeiler-Lehman labeling on g. Iteration 0 uses
// the node labels.
func WL(g *Graph, L int) *WLLabeling {
	return WLJoint([]*Graph{g}, L)[0]
}

// WLJoint runs WL labeling on several graphs with a shared class-id space,
// so class i at iteration l means the same WL label in every graph. This is
// what the cross-graph learning acceleration needs to compare node groups
// of a data graph and a query graph.
func WLJoint(gs []*Graph, L int) []*WLLabeling {
	out := make([]*WLLabeling, len(gs))
	cur := make([][]int, len(gs))

	// Iteration 0: classes from raw labels.
	dict := make(map[string]int)
	for i, g := range gs {
		out[i] = &WLLabeling{}
		cls := make([]int, g.N())
		for u := 0; u < g.N(); u++ {
			l := g.Label(u)
			id, ok := dict[l]
			if !ok {
				id = len(dict)
				dict[l] = id
			}
			cls[u] = id
		}
		cur[i] = cls
		out[i].Labels = append(out[i].Labels, cls)
	}
	n0 := len(dict)
	for i := range gs {
		out[i].Classes = append(out[i].Classes, n0)
	}

	var sb strings.Builder
	for l := 1; l <= L; l++ {
		dict := make(map[string]int)
		next := make([][]int, len(gs))
		for i, g := range gs {
			cls := make([]int, g.N())
			for u := 0; u < g.N(); u++ {
				sb.Reset()
				fmt.Fprintf(&sb, "%d|", cur[i][u])
				ns := make([]int, 0, g.Degree(u))
				for _, v := range g.Neighbors(u) {
					ns = append(ns, cur[i][v])
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
				cls[u] = id
			}
			next[i] = cls
		}
		nl := len(dict)
		for i := range gs {
			cur[i] = next[i]
			out[i].Labels = append(out[i].Labels, next[i])
			out[i].Classes = append(out[i].Classes, nl)
		}
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
