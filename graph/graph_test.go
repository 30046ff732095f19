package graph

import (
	"encoding/json"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func buildPath(t *testing.T, labels ...string) *Graph {
	t.Helper()
	g := New(-1)
	for _, l := range labels {
		g.AddNode(l)
	}
	for i := 1; i < len(labels); i++ {
		g.MustAddEdge(i-1, i)
	}
	return g
}

func TestAddNodeEdgeBasics(t *testing.T) {
	g := New(7)
	a := g.AddNode("A")
	b := g.AddNode("B")
	c := g.AddNode("A")
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("node ids = %d,%d,%d; want 0,1,2", a, b, c)
	}
	if err := g.AddEdge(a, b); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(b, c); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("N,M = %d,%d; want 3,2", g.N(), g.M())
	}
	if !g.HasEdge(b, a) || !g.HasEdge(c, b) || g.HasEdge(a, c) {
		t.Fatalf("adjacency wrong: %v", g.Edges())
	}
	if got := g.Degree(b); got != 2 {
		t.Fatalf("Degree(b) = %d; want 2", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(-1)
	g.AddNode("A")
	g.AddNode("B")
	cases := []struct {
		u, v int
	}{
		{0, 0},  // self loop
		{0, 2},  // out of range
		{-1, 0}, // negative
	}
	for _, c := range cases {
		if err := g.AddEdge(c.u, c.v); err == nil {
			t.Errorf("AddEdge(%d,%d) succeeded; want error", c.u, c.v)
		}
	}
	g.MustAddEdge(0, 1)
	if err := g.AddEdge(1, 0); err == nil {
		t.Errorf("duplicate edge accepted")
	}
}

func TestEdgesSortedAndUnique(t *testing.T) {
	g := New(-1)
	for i := 0; i < 5; i++ {
		g.AddNode("X")
	}
	g.MustAddEdge(3, 1)
	g.MustAddEdge(0, 4)
	g.MustAddEdge(2, 0)
	es := g.Edges()
	want := [][2]int{{0, 2}, {0, 4}, {1, 3}}
	if len(es) != len(want) {
		t.Fatalf("Edges() = %v; want %v", es, want)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges() = %v; want %v", es, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := buildPath(t, "A", "B", "C")
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatalf("clone not equal")
	}
	c.SetLabel(0, "Z")
	c.MustAddEdge(0, 2)
	if g.Label(0) != "A" || g.M() != 2 {
		t.Fatalf("mutating clone changed original")
	}
	if g.Equal(c) {
		t.Fatalf("Equal true after divergence")
	}
}

func TestLabelHelpers(t *testing.T) {
	g := buildPath(t, "C", "C", "N", "O", "C")
	hist := g.LabelHistogram()
	if hist["C"] != 3 || hist["N"] != 1 || hist["O"] != 1 {
		t.Fatalf("LabelHistogram = %v", hist)
	}
	set := g.LabelSet()
	if len(set) != 3 || set[0] != "C" || set[1] != "N" || set[2] != "O" {
		t.Fatalf("LabelSet = %v", set)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(-1)
	for i := 0; i < 6; i++ {
		g.AddNode("X")
	}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(3, 4)
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %v; want 3 comps", comps)
	}
	if g.IsConnected() {
		t.Fatalf("IsConnected = true for disconnected graph")
	}
	g.MustAddEdge(2, 3)
	g.MustAddEdge(4, 5)
	if !g.IsConnected() {
		t.Fatalf("IsConnected = false after joining")
	}
}

func TestDatabaseStats(t *testing.T) {
	db := NewDatabase([]*Graph{
		buildPath(t, "A", "B"),
		buildPath(t, "A", "B", "C", "C"),
	})
	if db[0].ID != 0 || db[1].ID != 1 {
		t.Fatalf("NewDatabase did not assign ids")
	}
	s := db.Stats()
	if s.Graphs != 2 || s.AvgNodes != 3 || s.AvgEdges != 2 || s.NumLabels != 3 {
		t.Fatalf("Stats = %+v", s)
	}
}

func TestWLDistinguishesLabels(t *testing.T) {
	// Path A-B-A vs path A-A-B: WL iteration 1 must separate the centers.
	g1 := buildPath(t, "A", "B", "A")
	g2 := buildPath(t, "A", "A", "B")
	w1, w2 := WL(g1, 2), WL(g2, 2)
	// In g1 the two endpoints share a class at every level; in g2 the
	// endpoints differ at level 0 already.
	if w1.Labels[0][0] != w1.Labels[0][2] {
		t.Fatalf("g1 endpoints differ at iter 0")
	}
	if w2.Labels[0][0] == w2.Labels[0][2] {
		t.Fatalf("g2 endpoints equal at iter 0")
	}
}

func TestWLRefinementMonotone(t *testing.T) {
	gen := NewGenerator(1)
	labels := []string{"A", "B", "C"}
	for i := 0; i < 20; i++ {
		g := gen.RandomConnected(3+gen.rng.Intn(20), 25, labels, 0.3)
		wl := WL(g, 3)
		for l := 1; l < len(wl.Classes); l++ {
			if wl.Classes[l] < wl.Classes[l-1] {
				t.Fatalf("WL classes shrank: %v", wl.Classes)
			}
			// Refinement: same class at level l implies same class at l-1.
			for u := 0; u < g.N(); u++ {
				for v := u + 1; v < g.N(); v++ {
					if wl.Labels[l][u] == wl.Labels[l][v] && wl.Labels[l-1][u] != wl.Labels[l-1][v] {
						t.Fatalf("WL not a refinement at level %d", l)
					}
				}
			}
		}
	}
}

// TestWLClassesDenseInFirstSeenOrder: at every iteration the class ids are
// 0..Classes[l]-1, numbered in the order their first nodes appear — the
// group numbering cg.Build takes as it is.
func TestWLClassesDenseInFirstSeenOrder(t *testing.T) {
	gen := NewGenerator(3)
	labels := []string{"A", "B", "C"}
	for i := 0; i < 20; i++ {
		g := gen.RandomConnected(3+gen.rng.Intn(20), 25, labels, 0.3)
		wl := WL(g, 3)
		for l, cls := range wl.Labels {
			next := 0
			for u, c := range cls {
				if c > next || c < 0 {
					t.Fatalf("graph %d level %d: node %d has class %d before class %d was used", i, l, u, c, next)
				}
				if c == next {
					next++
				}
			}
			if next != wl.Classes[l] {
				t.Fatalf("graph %d level %d: %d classes used, Classes says %d", i, l, next, wl.Classes[l])
			}
		}
	}
}

func TestHashIsomorphismInvariant(t *testing.T) {
	gen := NewGenerator(2)
	labels := []string{"A", "B", "C", "D"}
	for i := 0; i < 25; i++ {
		n := 4 + gen.rng.Intn(12)
		g := gen.RandomConnected(n, n+3, labels, 0.2)
		// Random permutation of node ids.
		perm := rand.New(rand.NewSource(int64(i))).Perm(n)
		h := New(-1)
		for u := 0; u < n; u++ {
			h.AddNode("")
		}
		for u := 0; u < n; u++ {
			h.SetLabel(perm[u], g.Label(u))
		}
		for _, e := range g.Edges() {
			h.MustAddEdge(perm[e[0]], perm[e[1]])
		}
		if Hash(g, 3) != Hash(h, 3) {
			t.Fatalf("hash differs for isomorphic graphs (iter %d)", i)
		}
	}
}

func TestHashSeparatesDifferentGraphs(t *testing.T) {
	g1 := buildPath(t, "A", "B", "C")
	g2 := buildPath(t, "A", "C", "B")
	if Hash(g1, 2) == Hash(g2, 2) {
		t.Fatalf("hash collision for different label sequences")
	}
	g3 := buildPath(t, "A", "B", "C")
	g3.MustAddEdge(0, 2)
	if Hash(g1, 2) == Hash(g3, 2) {
		t.Fatalf("hash collision for different edge sets")
	}
}

func TestGeneratorsProduceValidConnectedGraphs(t *testing.T) {
	gen := NewGenerator(3)
	labels := []string{"C", "N", "O", "S", "P"}
	for i := 0; i < 40; i++ {
		n := 2 + gen.rng.Intn(30)
		gs := []*Graph{
			gen.RandomConnected(n, n+4, labels, 0.4),
			gen.MoleculeLike(n, 2, labels, 0.5),
			gen.CFGLike(n, labels, 0.2),
		}
		for j, g := range gs {
			if err := g.Validate(); err != nil {
				t.Fatalf("generator %d: %v", j, err)
			}
			if g.N() != n {
				t.Fatalf("generator %d: n = %d; want %d", j, g.N(), n)
			}
			if !g.IsConnected() {
				t.Fatalf("generator %d: disconnected graph", j)
			}
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(42).MoleculeLike(20, 2, []string{"C", "N"}, 0.3)
	b := NewGenerator(42).MoleculeLike(20, 2, []string{"C", "N"}, 0.3)
	if !a.Equal(b) {
		t.Fatalf("same seed produced different graphs")
	}
}

func TestMutatePreservesValidityAndConnectivity(t *testing.T) {
	gen := NewGenerator(4)
	labels := []string{"A", "B", "C"}
	base := gen.MoleculeLike(15, 1, labels, 0.3)
	for i := 0; i < 50; i++ {
		m := gen.Mutate(base, 1+gen.rng.Intn(6), labels)
		if err := m.Validate(); err != nil {
			t.Fatalf("mutant invalid: %v", err)
		}
		if !m.IsConnected() {
			t.Fatalf("mutant disconnected")
		}
		if m.N() < 2 {
			t.Fatalf("mutant too small: n=%d", m.N())
		}
	}
	// Original untouched.
	if err := base.Validate(); err != nil || base.N() != 15 {
		t.Fatalf("base modified by Mutate: n=%d err=%v", base.N(), err)
	}
}

func TestRemoveLeafRenumbering(t *testing.T) {
	// Star: center 0 with leaves 1..4; remove leaf 1 — node 4 moves into
	// slot 1 and adjacency must stay consistent.
	g := New(-1)
	g.AddNode("center")
	for i := 1; i <= 4; i++ {
		g.AddNode("leaf" + string(rune('0'+i)))
		g.MustAddEdge(0, i)
	}
	removeLeaf(g, 1)
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("after removeLeaf: n=%d m=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.Label(1) != "leaf4" {
		t.Fatalf("slot 1 label = %q; want leaf4", g.Label(1))
	}
	if !g.HasEdge(0, 1) {
		t.Fatalf("moved node lost its edge")
	}
}

func TestTextRoundTrip(t *testing.T) {
	gen := NewGenerator(5)
	labels := []string{"C", "N", "O"}
	var db Database
	for i := 0; i < 10; i++ {
		db = append(db, gen.MoleculeLike(5+gen.rng.Intn(10), 1, labels, 0.3))
	}
	db = NewDatabase(db)

	var buf testBuffer
	if err := WriteText(&buf, db); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if len(got) != len(db) {
		t.Fatalf("round trip count = %d; want %d", len(got), len(db))
	}
	for i := range db {
		if !db[i].Equal(got[i]) {
			t.Fatalf("graph %d changed in round trip", i)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	gen := NewGenerator(6)
	db := NewDatabase([]*Graph{
		gen.CFGLike(8, []string{"block", "call", "ret"}, 0.2),
		gen.MoleculeLike(12, 2, []string{"C", "N", "O"}, 0.4),
	})
	data, err := json.Marshal(db)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var got Database
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	for i := range db {
		if !db[i].Equal(got[i]) {
			t.Fatalf("graph %d changed in JSON round trip", i)
		}
	}
}

func TestReadTextErrors(t *testing.T) {
	bad := []string{
		"v 0 A\n",             // v before t
		"t # 0\nv 1 A\n",      // non-dense id
		"t # 0\ne 0 1\n",      // edge out of range
		"t # 0\nv 0 A\nq x\n", // unknown record
	}
	for i, s := range bad {
		if _, err := ReadText(stringsReader(s)); err == nil {
			t.Errorf("case %d: no error for %q", i, s)
		}
	}
}

// quick-check: any graph built by the generator survives a text round trip.
func TestQuickTextRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		nn := int(n%25) + 2
		gen := NewGenerator(seed)
		g := gen.RandomConnected(nn, nn+3, []string{"A", "B", "C"}, 0.3)
		db := NewDatabase([]*Graph{g})
		var buf testBuffer
		if err := WriteText(&buf, db); err != nil {
			return false
		}
		got, err := ReadText(&buf)
		return err == nil && len(got) == 1 && got[0].Equal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// testBuffer is a minimal io.ReadWriter over a byte slice.
type testBuffer struct {
	data []byte
	pos  int
}

func (b *testBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func (b *testBuffer) Read(p []byte) (int, error) {
	if b.pos >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.pos:])
	b.pos += n
	return n, nil
}

func stringsReader(s string) *testBuffer {
	return &testBuffer{data: []byte(s)}
}
