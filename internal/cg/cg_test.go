package cg

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/mat"
	"github.com/lansearch/lan/internal/nn"
)

func testDB(seed int64, n int) graph.Database {
	gen := graph.NewGenerator(seed)
	labels := []string{"A", "B", "C", "D"}
	var gs []*graph.Graph
	for i := 0; i < n; i++ {
		gs = append(gs, gen.MoleculeLike(5+i%12, 1+i%3, labels, 0.4))
	}
	return graph.NewDatabase(gs)
}

func TestVocab(t *testing.T) {
	db := testDB(1, 5)
	v := NewVocab(db)
	if v.Size() < 2 {
		t.Fatalf("vocab too small: %d", v.Size())
	}
	if v.Index("A") == v.Index("B") {
		t.Fatalf("distinct labels collided")
	}
	if v.Index("__unseen__") != v.Size()-1 {
		t.Fatalf("OOV index = %d; want %d", v.Index("__unseen__"), v.Size()-1)
	}
}

func TestBuildPaperExampleFig2(t *testing.T) {
	// Fig. 2(a): G = star with center v0 (label A) and leaves v1..v3
	// (label B) — plus the paper's edges make it a path-ish shape; we use
	// the star: all three leaves share labels and neighborhoods, so every
	// level has exactly 2 groups (Fig. 4(a)).
	g := graph.New(-1)
	v0 := g.AddNode("A")
	for i := 0; i < 3; i++ {
		vi := g.AddNode("B")
		g.MustAddEdge(v0, vi)
	}
	vocab := NewVocab(graph.Database{g})
	c := Build(g, 2, vocab)
	for l := 0; l <= 2; l++ {
		if got := c.Groups(l); got != 2 {
			t.Fatalf("level %d groups = %d; want 2", l, got)
		}
	}
	// Center group has size 1, leaf group 3.
	sizes := c.Levels[0].Size
	if !(sizes[0] == 1 && sizes[1] == 3) && !(sizes[0] == 3 && sizes[1] == 1) {
		t.Fatalf("level-0 sizes = %v", sizes)
	}
	// The center aggregates itself once and three leaves (weight 3); the
	// edge weights per Algorithm 5 must reflect that.
	var centerIn []Lin
	for i := range c.Levels[1].Size {
		if c.Levels[1].Size[i] == 1 {
			centerIn = c.Levels[1].In[i]
		}
	}
	wsum := 0.0
	for _, e := range centerIn {
		wsum += e.W
	}
	if wsum != 4 { // self (1) + three leaves (3)
		t.Fatalf("center in-weights sum = %v; want 4", wsum)
	}
}

func TestBuildGroupCountsMatchWL(t *testing.T) {
	// Theorem 4: groups per level == WL classes per level.
	db := testDB(2, 10)
	vocab := NewVocab(db)
	for _, g := range db {
		wl := graph.WL(g, 3)
		c := Build(g, 3, vocab)
		for l := 0; l <= 3; l++ {
			classes := make(map[int]bool)
			for _, cl := range wl.Labels[l] {
				classes[cl] = true
			}
			if c.Groups(l) != len(classes) {
				t.Fatalf("graph %d level %d: %d groups, %d WL classes", g.ID, l, c.Groups(l), len(classes))
			}
		}
	}
}

func TestBuildRawShape(t *testing.T) {
	db := testDB(3, 3)
	vocab := NewVocab(db)
	g := db[0]
	c := BuildRaw(g, 2, vocab)
	for l := 0; l <= 2; l++ {
		if c.Groups(l) != g.N() {
			t.Fatalf("raw level %d groups = %d; want %d", l, c.Groups(l), g.N())
		}
	}
	// In-list of node u must have degree+1 unit edges.
	for u := 0; u < g.N(); u++ {
		ins := c.Levels[1].In[u]
		if len(ins) != g.Degree(u)+1 {
			t.Fatalf("node %d has %d in-edges; want %d", u, len(ins), g.Degree(u)+1)
		}
		for _, e := range ins {
			if e.W != 1 {
				t.Fatalf("raw edge weight %v", e.W)
			}
		}
	}
}

func TestCompressedNeverLargerThanRaw(t *testing.T) {
	// Corollary 1 at the structural level.
	db := testDB(4, 12)
	vocab := NewVocab(db)
	for _, g := range db {
		c := Build(g, 3, vocab)
		r := BuildRaw(g, 3, vocab)
		for l := 0; l <= 3; l++ {
			if c.Groups(l) > r.Groups(l) {
				t.Fatalf("graph %d level %d: compressed %d > raw %d", g.ID, l, c.Groups(l), r.Groups(l))
			}
		}
		cc := CrossCost(c, c)
		rc := CrossCost(r, r)
		if cc.AggEdges > rc.AggEdges || cc.AttnPairs > rc.AttnPairs || cc.MatmulRows > rc.MatmulRows {
			t.Fatalf("graph %d: compressed cost %+v exceeds raw %+v", g.ID, cc, rc)
		}
	}
}

func newTestModel(t *testing.T, db graph.Database, layers, dim int) (*CrossModel, *Vocab) {
	t.Helper()
	vocab := NewVocab(db)
	p := nn.NewParams()
	m := NewCrossModel(p, "m", Config{Layers: layers, Dim: dim, Vocab: vocab}, rand.New(rand.NewSource(99)))
	return m, vocab
}

// TestCrossModelDoesNotReadA1 pins a fidelity finding (DESIGN.md
// "Deviations"): the attention score of group i over the other side's
// group j is a1·h_i + a2·h_j + log|g_j| with no non-linearity around it,
// and the softmax over j cancels every term that does not depend on j. So
// every group of one side receives the same cross message, and neither
// the forward nor the reference reads A1: redrawing it — to other numbers
// or to NaN — leaves Infer, the training forward and refInfer the same
// bits, and it gets no gradient. A change that gives the attention a
// non-linearity (GAT's LeakyReLU, GMN's dot product) must fail this test
// and delete it.
func TestCrossModelDoesNotReadA1(t *testing.T) {
	db := testDB(31, 8)
	m, vocab := newTestModel(t, db, 2, 8)
	var cs []*Compressed
	for _, g := range db {
		cs = append(cs, Build(g, 2, vocab), BuildRaw(g, 2, vocab))
	}
	var pass CrossPass
	embed := func() (out [][]float64) {
		for _, g := range cs {
			for _, q := range cs {
				out = append(out, m.Infer(g, q), slices.Clone(pass.Forward(m, g, q)), refInfer(m, g, q))
			}
		}
		return out
	}
	before := embed()

	out := pass.Forward(m, cs[0], cs[3])
	dOut := make([]float64, len(out))
	for k, v := range out {
		dOut[k] = 2 * v // the gradient of the sum of squares
	}
	pass.Backward(dOut)
	for l, a1 := range m.A1 {
		if a1.Grad != nil {
			t.Fatalf("A1 of layer %d received a gradient", l+1)
		}
		if g := m.A2[l].Grad; g == nil || allZero(g.Data) {
			t.Fatalf("A2 of layer %d received no gradient", l+1)
		}
	}

	rng := rand.New(rand.NewSource(7))
	for _, redraw := range []string{"random", "NaN"} {
		for _, a1 := range m.A1 {
			for i := range a1.Data.Data {
				a1.Data.Data[i] = 3 * rng.NormFloat64()
				if redraw == "NaN" {
					a1.Data.Data[i] = math.NaN()
				}
			}
		}
		for i, after := range embed() {
			if !sameBits(after, before[i]) {
				t.Fatalf("embedding %d changed after a %s redraw of every A1:\nbefore %v\nafter  %v", i, redraw, before[i], after)
			}
		}
	}
}

// paperCross is Definition 1 written per node on the graphs themselves
// (Eq. 4-6, attention keyed on the previous layer as Theorem 2 reads it):
// every node aggregates itself and its neighbours and attends over every
// node of the other graph with its own softmax of a1·h_u + a2·h_v; the
// readout is the mean over nodes. It shares no code with the kernel.
func paperCross(m *CrossModel, g, q *graph.Graph) []float64 {
	oneHots := func(g *graph.Graph) [][]float64 {
		h := make([][]float64, g.N())
		for u := range h {
			h[u] = make([]float64, m.Cfg.Vocab.Size())
			h[u][m.Cfg.Vocab.Index(g.Label(u))] = 1
		}
		return h
	}
	hg, hq := oneHots(g), oneHots(q)
	for l := 1; l <= m.Cfg.Layers; l++ {
		w, a1, a2 := m.W[l-1].Data, m.A1[l-1].Data.Data, m.A2[l-1].Data.Data
		hg, hq = paperLayer(g, hg, hq, w, a1, a2), paperLayer(q, hq, hg, w, a1, a2)
	}
	mean := func(h [][]float64) []float64 {
		out := make([]float64, m.Cfg.Dim)
		for _, row := range h {
			for k, v := range row {
				out[k] += v / float64(len(h))
			}
		}
		return out
	}
	return append(mean(hg), mean(hq)...)
}

// paperLayer is one layer of paperCross for the nodes of g (embeddings h)
// against the other graph's nodes (embeddings other).
func paperLayer(g *graph.Graph, h, other [][]float64, w *mat.Matrix, a1, a2 []float64) [][]float64 {
	dot := func(a, b []float64) (s float64) {
		for k := range a {
			s += a[k] * b[k]
		}
		return s
	}
	next := make([][]float64, len(h))
	for u := range h {
		pre := slices.Clone(h[u])
		for _, v := range g.Neighbors(u) {
			for k, x := range h[v] {
				pre[k] += x
			}
		}
		scores := make([]float64, len(other))
		top := math.Inf(-1)
		for v, hv := range other {
			scores[v] = dot(a1, h[u]) + dot(a2, hv)
			top = math.Max(top, scores[v])
		}
		sum := 0.0
		for v := range scores {
			scores[v] = math.Exp(scores[v] - top)
			sum += scores[v]
		}
		for v, hv := range other {
			for k, x := range hv {
				pre[k] += scores[v] / sum * x
			}
		}
		out := make([]float64, w.Cols)
		for k, x := range pre {
			for j := range out {
				out[j] += x * w.At(k, j)
			}
		}
		for j, x := range out {
			out[j] = math.Max(x, 0)
		}
		next[u] = out
	}
	return next
}

// TestCrossAttentionMatchesPaper holds the one-message-per-side kernel to
// the per-node softmax of Definition 1 on raw graphs, for compressed and
// raw inputs, at every depth, on a small and an AIDS-wide vocabulary, with
// attention weights drawn large enough that the softmax is far from
// uniform and A1 far from zero. On compressed inputs the log|g_j| term
// carries the group sizes: without it the kernel fails here.
func TestCrossAttentionMatchesPaper(t *testing.T) {
	for _, vocabSize := range []int{5, 52} {
		vocab := vocabOf(vocabSize)
		gs := labelledGraphs(int64(vocabSize)+40, 10, vocab)
		for layers := 1; layers <= 3; layers++ {
			rng := rand.New(rand.NewSource(int64(100*vocabSize + layers)))
			m := NewCrossModel(nn.NewParams(), "m", Config{Layers: layers, Dim: 7, Vocab: vocab}, rng)
			for l := range m.A1 {
				for _, a := range []*nn.Param{m.A1[l], m.A2[l]} {
					for i := range a.Data.Data {
						a.Data.Data[i] = 1.5 * rng.NormFloat64()
					}
				}
			}
			for gi, g := range gs {
				q := gs[(gi+3)%len(gs)]
				want := paperCross(m, g, q)
				scale := 0.0
				for _, v := range want {
					scale = math.Max(scale, math.Abs(v))
				}
				for name, build := range map[string]func(*graph.Graph, int, *Vocab) *Compressed{"compressed": Build, "raw": BuildRaw} {
					got := m.Infer(build(g, layers, vocab), build(q, layers, vocab))
					for k := range want {
						if d := math.Abs(got[k] - want[k]); !(d <= 1e-12*scale) {
							t.Fatalf("vocab %d, %d layers, %s, pair %d: column %d = %v; Definition 1 gives %v (|diff| %g, scale %g)",
								vocabSize, layers, name, gi, k, got[k], want[k], d, scale)
						}
					}
				}
			}
		}
	}
}

// TestTheorem2CompressedEqualsRaw: Definition 3 on compressed inputs
// equals Definition 1 on raw ones — the kernel on both, and the kernel on
// compressed inputs against the matrix reference on raw ones.
func TestTheorem2CompressedEqualsRaw(t *testing.T) {
	db := testDB(5, 8)
	m, vocab := newTestModel(t, db, 3, 8)
	for i := 0; i < len(db); i++ {
		for j := i + 1; j < len(db); j++ {
			g, q := db[i], db[j]
			rawG, rawQ := BuildRaw(g, 3, vocab), BuildRaw(q, 3, vocab)
			comp := m.Infer(Build(g, 3, vocab), Build(q, 3, vocab))
			for name, raw := range map[string][]float64{"kernel": m.Infer(rawG, rawQ), "reference": refInfer(m, rawG, rawQ)} {
				if d := maxAbsDiff(raw, comp); d > 1e-9 {
					t.Fatalf("pair (%d,%d): |raw (%s) - compressed| = %v", i, j, name, d)
				}
			}
		}
	}
}

func TestTheorem2MixedInputs(t *testing.T) {
	// Raw G with compressed Q must still match (the two sides are
	// independent groupings of the same computation).
	db := testDB(6, 4)
	m, vocab := newTestModel(t, db, 2, 6)
	g, q := db[0], db[1]
	a := m.Infer(BuildRaw(g, 2, vocab), Build(q, 2, vocab))
	b := refInfer(m, Build(g, 2, vocab), BuildRaw(q, 2, vocab))
	if d := maxAbsDiff(a, b); d > 1e-9 {
		t.Fatalf("mixed inputs diverge: %v", d)
	}
}

// allZero reports whether every value of a is 0.
func allZero(a []float64) bool {
	for _, v := range a {
		if v != 0 {
			return false
		}
	}
	return true
}

// maxAbsDiff returns max |a[k] - b[k]|.
func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for k := range a {
		d = math.Max(d, math.Abs(a[k]-b[k]))
	}
	return d
}

func TestForwardShapeAndDeterminism(t *testing.T) {
	db := testDB(7, 3)
	m, vocab := newTestModel(t, db, 2, 5)
	c0, c1 := Build(db[0], 2, vocab), Build(db[1], 2, vocab)
	var pass CrossPass
	out := slices.Clone(pass.Forward(m, c0, c1))
	if len(out) != 10 {
		t.Fatalf("cross embedding has %d floats; want 10", len(out))
	}
	if out2 := pass.Forward(m, c0, c1); !sameBits(out, out2) {
		t.Fatalf("forward not deterministic: %v then %v", out, out2)
	}
}

func TestCrossModelGradientsFlow(t *testing.T) {
	db := testDB(8, 2)
	vocab := NewVocab(db)
	p := nn.NewParams()
	m := NewCrossModel(p, "m", Config{Layers: 2, Dim: 4, Vocab: vocab}, rand.New(rand.NewSource(1)))
	var pass CrossPass
	out := pass.Forward(m, Build(db[0], 2, vocab), Build(db[1], 2, vocab))
	dOut := make([]float64, len(out))
	for k, v := range out {
		dOut[k] = 2 * v // the gradient of the sum of squares
	}
	pass.Backward(dOut)
	for _, name := range p.Names() {
		if strings.HasPrefix(name, "m.a1_") {
			continue // never read (TestCrossModelDoesNotReadA1)
		}
		if p.Get(name).Grad == nil {
			t.Fatalf("parameter %s received no gradient", name)
		}
	}
	// At least the first-layer W must have a nonzero gradient.
	if allZero(p.Get("m.W1").Grad.Data) {
		t.Fatalf("first-layer gradient identically zero")
	}
}

func TestCrossModelTrainsToSeparateClasses(t *testing.T) {
	// Tiny end-to-end learnability check: classify whether Q is a mutation
	// of G (positive) or an unrelated graph (negative).
	gen := graph.NewGenerator(42)
	labels := []string{"A", "B", "C"}
	var db []*graph.Graph
	for i := 0; i < 8; i++ {
		db = append(db, gen.MoleculeLike(8, 1, labels, 0.3))
	}
	vocab := NewVocab(graph.NewDatabase(db))
	p := nn.NewParams()
	rng := rand.New(rand.NewSource(5))
	m := NewCrossModel(p, "m", Config{Layers: 2, Dim: 8, Vocab: vocab}, rng)
	head := nn.NewMLP(p, "head", []int{16, 8, 1}, rng)
	opt := nn.NewAdam(p, 0.01)

	type pair struct {
		a, b *Compressed
		y    float64
	}
	var pairs []pair
	for i := 0; i < 8; i++ {
		g := db[i]
		mut := gen.Mutate(g, 1, labels)
		far := gen.MoleculeLike(8, 1, labels, 0.3)
		pairs = append(pairs,
			pair{Build(g, 2, vocab), Build(mut, 2, vocab), 1},
			pair{Build(g, 2, vocab), Build(far, 2, vocab), 0},
		)
	}
	var pass CrossPass
	acts, buf := make([]float64, head.Acts()), make([]float64, 2*head.Width())
	dEmb := make([]float64, 16)
	var loss float64
	for epoch := 0; epoch < 60; epoch++ {
		p.ZeroGrad()
		total := 0.0
		for _, pr := range pairs {
			emb := pass.Forward(m, pr.a, pr.b)
			l, d := nn.BCEWithLogits(head.Forward(acts, emb)[0], pr.y)
			clear(dEmb)
			head.Backward(emb, acts, []float64{d}, dEmb, buf)
			pass.Backward(dEmb)
			total += l
		}
		opt.Step()
		loss = total / float64(len(pairs))
	}
	if loss > 0.45 {
		t.Fatalf("cross model failed to fit toy task: loss %v", loss)
	}
}

func TestCrossCostAccounting(t *testing.T) {
	db := testDB(9, 2)
	vocab := NewVocab(db)
	a := BuildRaw(db[0], 2, vocab)
	b := BuildRaw(db[1], 2, vocab)
	c := CrossCost(a, b)
	n0, n1 := db[0].N(), db[1].N()
	wantAttn := 2 * 2 * n0 * n1 // two layers, both directions
	if c.AttnPairs != wantAttn {
		t.Fatalf("AttnPairs = %d; want %d", c.AttnPairs, wantAttn)
	}
	wantRows := 2 * (n0 + n1)
	if c.MatmulRows != wantRows {
		t.Fatalf("MatmulRows = %d; want %d", c.MatmulRows, wantRows)
	}
	wantAgg := 2 * (n0 + 2*db[0].M() + n1 + 2*db[1].M())
	if c.AggEdges != wantAgg {
		t.Fatalf("AggEdges = %d; want %d", c.AggEdges, wantAgg)
	}
	if c.Total() != c.AggEdges+c.AttnPairs+c.MatmulRows {
		t.Fatalf("Total inconsistent")
	}
}

func TestGINModelEmbedding(t *testing.T) {
	db := testDB(10, 4)
	vocab := NewVocab(db)
	p := nn.NewParams()
	m := NewGINModel(p, "gin", Config{Layers: 2, Dim: 6, Vocab: vocab}, rand.New(rand.NewSource(2)))
	e0 := m.Embed(Build(db[0], 2, vocab))
	if len(e0) != 6 {
		t.Fatalf("embedding dim %d; want 6", len(e0))
	}
	// Compressed == raw for plain GIN too.
	e0raw := m.Embed(BuildRaw(db[0], 2, vocab))
	for i := range e0 {
		if math.Abs(e0[i]-e0raw[i]) > 1e-9 {
			t.Fatalf("GIN compressed != raw at %d: %v vs %v", i, e0[i], e0raw[i])
		}
	}
	// Same graph twice -> same embedding; different graphs (generically)
	// differ.
	e0b := m.Embed(Build(db[0], 2, vocab))
	for i := range e0 {
		if e0[i] != e0b[i] {
			t.Fatalf("embedding not deterministic")
		}
	}
}

// TestHAGEquivalenceAndSavings: a HAG plan aggregates what the raw
// GNN-graph does — every rewritten row, its aux rows expanded into the
// sources they sum, holds raw's terms as a multiset — and never adds
// aggregation work.
func TestHAGEquivalenceAndSavings(t *testing.T) {
	db := testDB(11, 6)
	vocab := NewVocab(db)
	for _, g := range db {
		raw := BuildRaw(g, 2, vocab)
		h := BuildHAG(raw, 8)
		rawEdges := 0
		for l := 1; l <= 2; l++ {
			base := raw.Groups(l - 1)
			var expand func(e Lin) []Lin
			expand = func(e Lin) []Lin {
				if e.Row < base {
					return []Lin{e}
				}
				var out []Lin
				for _, a := range h.Aux[l][e.Row-base] {
					for _, x := range expand(a) {
						out = append(out, Lin{Row: x.Row, W: x.W * e.W})
					}
				}
				return out
			}
			for i, terms := range raw.Levels[l].In {
				rawEdges += len(terms)
				var got []Lin
				for _, e := range h.In[l][i] {
					got = append(got, expand(e)...)
				}
				want := slices.Clone(terms)
				for _, s := range [][]Lin{got, want} {
					slices.SortFunc(s, func(a, b Lin) int { return cmp.Or(cmp.Compare(a.Row, b.Row), cmp.Compare(a.W, b.W)) })
				}
				if !slices.Equal(got, want) {
					t.Fatalf("graph %d layer %d row %d: plan aggregates %v, raw %v", g.ID, l, i, got, want)
				}
			}
		}
		if h.AggEdges() > rawEdges {
			t.Fatalf("graph %d: HAG increased agg edges: %d > %d", g.ID, h.AggEdges(), rawEdges)
		}
	}
}

func TestHAGFindsSharingInDenseGraph(t *testing.T) {
	// A complete graph has maximal neighbor overlap: HAG must save edges.
	g := graph.New(-1)
	for i := 0; i < 6; i++ {
		g.AddNode("X")
	}
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			g.MustAddEdge(i, j)
		}
	}
	vocab := NewVocab(graph.Database{g})
	raw := BuildRaw(g, 2, vocab)
	h := BuildHAG(raw, 16)
	rawEdges := 0
	for l := 1; l <= 2; l++ {
		for _, ins := range raw.Levels[l].In {
			rawEdges += len(ins)
		}
	}
	if h.AggEdges() >= rawEdges {
		t.Fatalf("HAG saved nothing on K6: %d >= %d", h.AggEdges(), rawEdges)
	}
}

func TestConfigValidation(t *testing.T) {
	p := nn.NewParams()
	rng := rand.New(rand.NewSource(0))
	for i, bad := range []Config{
		{Layers: 0, Dim: 4, Vocab: &Vocab{size: 3}},
		{Layers: 2, Dim: 0, Vocab: &Vocab{size: 3}},
		{Layers: 2, Dim: 4, Vocab: nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d: no panic", i)
				}
			}()
			NewCrossModel(p, "x", bad, rng)
		}()
	}
}

// TestInferMatchesForward pins the training forward (CrossPass) to
// inference (Infer) and both to the matrix reference, with ==: they are
// one kernel, run with and without a record, so not a bit may differ.
func TestInferMatchesForward(t *testing.T) {
	db := testDB(21, 8)
	m, vocab := newTestModel(t, db, 3, 8)
	var pass CrossPass
	for i := 0; i+1 < len(db); i += 2 {
		for name, build := range map[string]func(*graph.Graph, int, *Vocab) *Compressed{"compressed": Build, "raw": BuildRaw} {
			cgG, cgQ := build(db[i], 3, vocab), build(db[i+1], 3, vocab)
			want := refInfer(m, cgG, cgQ)
			if got := m.Infer(cgG, cgQ); !sameBits(got, want) {
				t.Fatalf("pair %d %s: Infer %v; reference %v", i, name, got, want)
			}
			if got := pass.Forward(m, cgG, cgQ); !sameBits(got, want) {
				t.Fatalf("pair %d %s: training forward %v; reference %v", i, name, got, want)
			}
		}
	}
}

// TestGINEmbedMatchesForward pins Embed and the training forward
// (GINPass) to the dense reference, with ==.
func TestGINEmbedMatchesForward(t *testing.T) {
	db := testDB(23, 6)
	vocab := NewVocab(db)
	p := nn.NewParams()
	m := NewGINModel(p, "gin", Config{Layers: 3, Dim: 7, Vocab: vocab}, rand.New(rand.NewSource(2)))
	var pass GINPass
	for _, g := range db {
		for _, c := range []*Compressed{Build(g, 3, vocab), BuildRaw(g, 3, vocab)} {
			want := refEmbed(m, c)
			if got := m.Embed(c); !sameBits(got, want) {
				t.Fatalf("graph %d: Embed %v; reference %v", g.ID, got, want)
			}
			if got := pass.Forward(m, c); !sameBits(got, want) {
				t.Fatalf("graph %d: training forward %v; reference %v", g.ID, got, want)
			}
		}
	}
}
