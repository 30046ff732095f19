package ged

import (
	"slices"
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

// fuzzInstance decodes an assignment instance that no pair of graphs need
// produce: sides of at most 40 (either may be empty), substitution cells in
// {0, ½, …, 4}, deletion and insertion cells in {1, 1½, …, 5}. The cell
// bytes are read round and round, so a short input still fills a large
// instance — with a repeating pattern, which is where the ties are.
func fuzzInstance(n1, n2 uint8, cells []byte) instance {
	in := instance{n1: int(n1 % 41), n2: int(n2 % 41)}
	next := 0
	half := func() float64 {
		if len(cells) == 0 {
			return 0
		}
		b := cells[next%len(cells)]
		next++
		return float64(b%9) / 2
	}
	for i := 0; i < in.n1*in.n2; i++ {
		in.sub = append(in.sub, half())
	}
	for i := 0; i < in.n1; i++ {
		in.del = append(in.del, 1+half())
	}
	for k := 0; k < in.n2; k++ {
		in.ins = append(in.ins, 1+half())
	}
	return in
}

// FuzzAssignmentMatchesReference holds both solvers to the dense reference
// ones on arbitrary instances of the padded shape: the whole assignment
// array, padding rows included, must be the reference's.
func FuzzAssignmentMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(3), uint8(0), []byte{1, 2, 3})
	f.Add(uint8(0), uint8(4), []byte{7})
	f.Add(uint8(5), uint8(3), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 2})
	f.Fuzz(func(t *testing.T, n1, n2 uint8, cells []byte) {
		in := fuzzInstance(n1, n2, cells)
		m := in.dense()
		if got, want := solveHungarian(in), refSolveHungarian(m); !slices.Equal(got, want) {
			t.Fatalf("%dx%d: hungarian %v; reference %v", in.n1, in.n2, got, want)
		}
		if got, want := solveJV(in), refSolveJV(m); !slices.Equal(got, want) {
			t.Fatalf("%dx%d: jv %v; reference %v", in.n1, in.n2, got, want)
		}
	})
}
