package ged

import (
	"math/rand"
	"testing"

	"github.com/lansearch/lan/graph"
)

// checkChildRows runs childRows on both bodies over one parent of n
// one-word rows decoded from data, at a depth before the last, and fails
// unless f, cost and nbr agree on every unused row and the mask words
// agree, and neither body wrote past row n or past the first mask word.
// Every input is arbitrary, overflowing sums included: both bodies wrap.
func checkChildRows(t testing.TB, n int, data []byte) {
	at := func(k int) byte {
		if len(data) == 0 {
			return 0
		}
		return data[k%len(data)]
	}
	word := func(k int) uint64 {
		var w uint64
		for b := 0; b < 8; b++ {
			w = w<<8 | uint64(at(k+b))
		}
		return w
	}
	const sentinel32 = 0x5a5a5a5a
	nLabels := 1 + int(at(0)%9)
	c := &pairCtx{hN: n, hWords: 1, nLabels: nLabels}
	c.hAdj, c.hLab, c.hDeg = make([]uint64, n), make([]int32, n), make([]int32, n)
	for x := 0; x < n; x++ {
		c.hAdj[x] = word(8 * x)
		c.hLab[x] = int32(at(3*x+1)) % int32(nLabels)
		c.hDeg[x] = int32(int8(at(5*x + 2)))
	}
	c.labTab = make([]int32, nLabels)
	for l := range c.labTab {
		c.labTab[l] = int32(int8(at(7*l + 3)))
	}
	c.img = []uint64{word(11)}
	used := []uint64{word(13)}
	if at(4)%4 == 0 {
		used[0] = 0 // the root's children: every row unused
	}
	base, gap := int32(int8(at(5)))<<int(at(6)%25), int32(int8(at(7)))<<int(at(8)%25)
	gl, bound := int32(at(9))%int32(nLabels+1), int32(int8(at(10)))
	if at(11)%3 == 0 {
		bound = noBound
	}

	type out struct {
		f, cost, nbr []int32
		mask         []uint64
	}
	var got [2]out
	eachBody(func(body string) {
		c.childF, c.childCost, c.childNbr = make([]int32, n+1), make([]int32, n+1), make([]int32, n+1)
		for _, s := range [][]int32{c.childF, c.childCost, c.childNbr} {
			for i := range s {
				s[i] = sentinel32
			}
		}
		c.childMask = maskBuf(n + 1)
		c.childRows(used, false, base, gap, gl, bound)
		got[slot(body)] = out{c.childF, c.childCost, c.childNbr, c.childMask}
	})
	v, g := got[0], got[1]
	for x := 0; x < n; x++ {
		if used[0]&(1<<x) != 0 {
			continue
		}
		if v.f[x] != g.f[x] || v.cost[x] != g.cost[x] || v.nbr[x] != g.nbr[x] {
			t.Fatalf("n=%d row %d: vector f/cost/nbr %d/%d/%d, Go %d/%d/%d", n, x, v.f[x], v.cost[x], v.nbr[x], g.f[x], g.cost[x], g.nbr[x])
		}
	}
	if v.mask[0] != g.mask[0] {
		t.Fatalf("n=%d used %#x bound %d: vector mask %#x, Go %#x", n, used[0], bound, v.mask[0], g.mask[0])
	}
	for _, o := range got {
		if o.f[n] != sentinel32 || o.cost[n] != sentinel32 || o.nbr[n] != sentinel32 || o.mask[1] != sentinel {
			t.Fatalf("n=%d: a body wrote past its rows", n)
		}
	}
}

// TestChildPassBodiesBitIdentical sweeps every row count childRows' vector
// body takes — each length of its last block of eight, up to the full
// 64-row word — with random inputs. Past 64 rows both bodies are the Go
// one.
func TestChildPassBodiesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for n := 1; n <= 64; n++ {
		for trial := 0; trial < 16; trial++ {
			data := make([]byte, 1+rng.Intn(9*n+16))
			rng.Read(data)
			checkChildRows(t, n, data)
		}
	}
}

func FuzzChildPassBodiesBitIdentical(f *testing.F) {
	f.Add(uint8(64), []byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9})
	f.Add(uint8(13), []byte{0xff, 0, 0x80, 0x7f})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) { checkChildRows(t, 1+int(n)%64, data) })
}

// widePairs are pairs (g, h) with |V_h| from 62 to 129 — around the one-,
// two- and three-word bitsets over h, where the deletion child's mask bit,
// hN, falls in a word of its own at 64 and 128 — and g smaller, or two
// nodes bigger, so that the search branches over g.
func widePairs() [][2]*graph.Graph {
	gen := graph.NewGenerator(5601)
	labels := simLabels(4)
	var pairs [][2]*graph.Graph
	for _, n := range []int{62, 63, 64, 65, 66, 127, 128, 129} {
		h := gen.RandomConnected(n, n+n/2, labels, 0.3)
		pairs = append(pairs,
			[2]*graph.Graph{gen.MoleculeLike(2*n/3, 2, labels, 0.3), h},
			[2]*graph.Graph{gen.RandomConnected(n+2, n+n/2, labels, 0.3), h})
	}
	return pairs
}

// TestBeamAStarWideGraphsMatchReference holds beam search, budgeted A*
// and the ensemble on graphs past one word to the reference kernels, on
// both bodies of the child pass and the row kernels. The references, which
// take all but a few milliseconds of it, run once.
func TestBeamAStarWideGraphsMatchReference(t *testing.T) {
	type want struct {
		beam     [2]float64 // w 1 and 4
		d        float64
		exp      int
		ok       bool
		ensemble float64
	}
	e := Ensemble{ExactBudget: 30, BeamWidth: 4}
	pairs := widePairs()
	wants := make([]want, len(pairs))
	for i, p := range pairs {
		g, h := p[0], p[1]
		w := &wants[i]
		w.beam = [2]float64{referenceBeam(g, h, 1), referenceBeam(g, h, 4)}
		w.d, _, w.exp, w.ok = refAStar(g, h, 30)
		w.ensemble = refEnsemble(e, g, h)
	}
	eachBody(func(body string) {
		for i, p := range pairs {
			g, h, want := p[0], p[1], wants[i]
			for k, w := range []int{1, 4} {
				if got := Beam(g, h, w); got != want.beam[k] {
					t.Fatalf("%s: pair %d (|g|=%d |h|=%d) w=%d: Beam %v != reference %v", body, i, g.N(), h.N(), w, got, want.beam[k])
				}
			}
			d, _, exp, ok := arenaAStar(g, h, 30)
			if ok != want.ok || exp != want.exp || (ok && d != want.d) {
				t.Fatalf("%s: pair %d (|g|=%d |h|=%d): A* %v, %d expansions, ok=%v; reference %v, %d, %v",
					body, i, g.N(), h.N(), d, exp, ok, want.d, want.exp, want.ok)
			}
			if pd, pok := Exact(g, h, 30); pok != want.ok || pd != want.d {
				t.Fatalf("%s: pair %d: Exact = %v, %v; reference %v, %v", body, i, pd, pok, want.d, want.ok)
			}
			if got := e.Distance(g, h); got != want.ensemble {
				t.Fatalf("%s: pair %d (|g|=%d |h|=%d): Ensemble %v != reference %v", body, i, g.N(), h.N(), got, want.ensemble)
			}
		}
	})
}
