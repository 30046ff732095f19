package ged

import (
	"testing"

	"github.com/lansearch/lan/graph"
)

// fuzzGraph decodes a graph of at most 10 nodes over 4 labels from bytes:
// the node count, one label byte per node, then one bit per node pair in
// lexicographic order. Missing bytes read as zero, so every input decodes.
func fuzzGraph(data []byte) *graph.Graph {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	g := graph.New(-1)
	n := int(at(0)) % 11
	for u := 0; u < n; u++ {
		g.AddNode(string(rune('A' + at(1+u)%4)))
	}
	bit := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if at(1+n+bit/8)>>(bit%8)&1 == 1 {
				g.MustAddEdge(u, v)
			}
			bit++
		}
	}
	return g
}

// FuzzEnsembleMatchesReference holds every arena kernel to its reference
// on arbitrary small pairs, and the results to the bounds' order:
// LowerBound <= exact <= every upper bound.
func FuzzEnsembleMatchesReference(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0), uint8(0))
	f.Add([]byte{3, 0, 1, 2, 0b011}, []byte{3, 0, 1, 3, 0b111}, uint8(30), uint8(4))
	f.Add([]byte{5, 0, 1, 2, 3, 0, 0xff, 0x03}, []byte{2, 1, 1, 1}, uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, a, b []byte, budget, width uint8) {
		g, h := fuzzGraph(a), fuzzGraph(b)
		e := Ensemble{ExactBudget: int(budget), BeamWidth: int(width)}
		ens := e.Distance(g, h)
		if want := refEnsemble(e, g, h); ens != want {
			t.Fatalf("%+v: ensemble %v; reference %v", e, ens, want)
		}
		// Budget 0 would mean unbounded here; the ensemble above covers
		// "no A* at all".
		d, ok := Exact(g, h, 1+int(budget))
		if wd, _, _, wok := refAStar(g, h, 1+int(budget)); d != wd || ok != wok {
			t.Fatalf("Exact(budget %d) = %v, %v; reference %v, %v", 1+int(budget), d, ok, wd, wok)
		}
		vj, hung, beam := VJ(g, h), Hungarian(g, h), Beam(g, h, int(width))
		if want := refVJ(g, h); vj != want {
			t.Fatalf("VJ = %v; reference %v", vj, want)
		}
		if want := refHungarian(g, h); hung != want {
			t.Fatalf("Hungarian = %v; reference %v", hung, want)
		}
		if want := referenceBeam(g, h, int(width)); beam != want {
			t.Fatalf("Beam(%d) = %v; reference %v", width, beam, want)
		}
		// A 10-node pair can take millions of expansions; 20000 settle most.
		exact, ok := Exact(g, h, 20000)
		if !ok {
			return
		}
		if lb := LowerBound(g, h); lb > exact {
			t.Fatalf("LowerBound %v > exact %v", lb, exact)
		}
		for name, ub := range map[string]float64{
			"Ensemble": ens, "Exact's bound": d, "VJ": vj, "Hungarian": hung, "Beam": beam,
		} {
			if ub < exact {
				t.Fatalf("%s = %v < exact %v", name, ub, exact)
			}
		}
	})
}
