package cg

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/internal/mat"
	"github.com/lansearch/lan/internal/nn"
)

// sameBits reports whether two embeddings are the same floats, bit for
// bit, so that NaN readouts (an empty graph's 0/0) compare equal to
// themselves and -0 does not pass for +0.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// vocabOf builds a vocabulary of n-1 labels L0..L(n-2) plus the OOV
// bucket, so Size() == n.
func vocabOf(n int) *Vocab {
	labels := make([]string, n-1)
	for i := range labels {
		labels[i] = fmt.Sprintf("L%02d", i)
	}
	return vocabFromLabels(labels...)
}

// vocabFromLabels is NewVocab over one edgeless graph carrying labels.
func vocabFromLabels(labels ...string) *Vocab {
	g := graph.New(0)
	for _, l := range labels {
		g.AddNode(l)
	}
	return NewVocab(graph.Database{g})
}

// labelledGraphs draws molecule-like graphs over the vocabulary's labels
// plus two labels it has never seen.
func labelledGraphs(seed int64, n int, vocab *Vocab) []*graph.Graph {
	labels := append(vocab.Labels(), "oov-1", "oov-2")
	gen := graph.NewGenerator(seed)
	gs := make([]*graph.Graph, n)
	for i := range gs {
		gs[i] = gen.MoleculeLike(4+i%14, i%3, labels, 0.3)
	}
	return gs
}

// kernelGraphs is the identity tests' graph set over a vocabulary of
// vocabSize: 14 molecule-like graphs (unseen labels included), one single
// node and one edgeless graph.
func kernelGraphs(vocabSize int) (*Vocab, []*graph.Graph) {
	single := graph.New(-1)
	single.AddNode("L00")
	edgeless := graph.New(-1)
	for i := 0; i < 5; i++ {
		edgeless.AddNode([]string{"L00", "L01", "oov-1"}[i%3])
	}
	vocab := vocabOf(vocabSize)
	return vocab, append(labelledGraphs(int64(vocabSize), 14, vocab), single, edgeless)
}

// kernelBuilds are the two constructions the identity tests run on.
var kernelBuilds = []struct {
	name string
	fn   func(*graph.Graph, int, *Vocab) *Compressed
}{{"compressed", Build}, {"raw", BuildRaw}}

// TestInferKernelMatchesReference runs on both bodies of the mat row
// kernels, at Dim 7 (the 4-column block and a Go tail), 16 (the benchmark's
// width: one 16-column block) and 23 (a 16-block, a 4-block and a
// 3-column tail).
func TestInferKernelMatchesReference(t *testing.T) {
	mat.EachBody(func(body string) { t.Run(body, checkInferKernelMatchesReference) })
}

func checkInferKernelMatchesReference(t *testing.T) {
	for _, vocabSize := range []int{6, 52} {
		vocab, gs := kernelGraphs(vocabSize)
		for _, dim := range []int{7, 16, 23} {
			for layers := 1; layers <= 3; layers++ {
				m := NewCrossModel(nn.NewParams(), "m", Config{Layers: layers, Dim: dim, Vocab: vocab}, rand.New(rand.NewSource(int64(layers))))
				for _, build := range kernelBuilds {
					cs := make([]*Compressed, len(gs))
					for i, g := range gs {
						cs[i] = build.fn(g, layers, vocab)
					}
					// One workspace for the whole sweep: every call after the
					// first runs on memory the previous pairs left dirty.
					ws := NewWorkspace()
					got := make([]float64, 2*m.Cfg.Dim)
					for qi, q := range cs {
						ws.Bind(m, q)
						for gi, g := range cs { // every ordered pair: G and Q swap roles
							ws.Cross(got, g)
							if want := refInfer(m, g, q); !sameBits(got, want) {
								t.Fatalf("vocab %d, dim %d, %d layers, %s, G=%d Q=%d:\nkernel    %v\nreference %v",
									vocabSize, dim, layers, build.name, gi, qi, got, want)
							}
						}
					}
					if ws.f.off != 0 {
						t.Fatalf("Cross left %d floats on the stack", ws.f.off)
					}
				}
			}
		}
	}
}

// slabSentinel marks slab floats no kernel has written: a NaN payload no
// arithmetic produces.
var slabSentinel = math.Float64frombits(0x7ff4_5a5a_5a5a_5a5a)

// exactSlab returns a slab of exactly n floats, all the sentinel: a take
// past n panics, and a float never taken stays the sentinel.
func exactSlab(n int) bump[float64] {
	buf := make([]float64, n)
	for i := range buf {
		buf[i] = slabSentinel
	}
	return bump[float64]{buf: buf}
}

// untouched counts the floats of f's slab still holding the sentinel.
func untouched(f *bump[float64]) int {
	n := 0
	for _, v := range f.buf {
		if math.Float64bits(v) == math.Float64bits(slabSentinel) {
			n++
		}
	}
	return n
}

// TestSlabFloatsMatchTakes pins crossFloats and ginFloats to the takes of
// cross and gin they mirror. Each pass runs on a slab of exactly the
// count, so a take beyond it panics; a recorded pass must end at the
// count, and an inference pass — which pops what it took — must have
// written every float of it, which it does only if it took them all (every
// float a kernel takes, it writes).
func TestSlabFloatsMatchTakes(t *testing.T) {
	for _, vocabSize := range []int{6, 52} {
		vocab, gs := kernelGraphs(vocabSize)
		for layers := 1; layers <= 3; layers++ {
			cfg := Config{Layers: layers, Dim: 7, Vocab: vocab}
			cm := NewCrossModel(nn.NewParams(), "m", cfg, rand.New(rand.NewSource(1)))
			gm := NewGINModel(nn.NewParams(), "g", cfg, rand.New(rand.NewSource(2)))
			rec, sides := make([]crossLayer, layers), make([]side, layers)
			out := make([]float64, cfg.CrossDim())
			for _, build := range kernelBuilds {
				cs := make([]*Compressed, len(gs))
				for i, g := range gs {
					cs[i] = build.fn(g, layers, vocab)
				}
				where := fmt.Sprintf("vocab %d, %d layers, %s", vocabSize, layers, build.name)
				for gi, g := range cs {
					for _, train := range []bool{false, true} {
						n := ginFloats(gm, g, train)
						f := exactSlab(n)
						r := sides
						if !train {
							r = nil
						}
						gin(&f, out[:cfg.Dim], gm, g, r)
						if f.off != n || untouched(&f) != 0 {
							t.Fatalf("%s, gin G=%d train %v: took %d of ginFloats %d, %d never written", where, gi, train, f.off, n, untouched(&f))
						}
					}
					for qi, q := range cs {
						n := crossFloats(cm, g, q, true)
						f := exactSlab(n)
						cross(&f, out, cm, g, q, nil, rec)
						if f.off != n {
							t.Fatalf("%s, G=%d Q=%d: a recorded pass took %d of crossFloats %d", where, gi, qi, f.off, n)
						}
						qMu := make([]float64, vocab.Size())
						ws := NewWorkspace()
						ws.Bind(cm, q)
						copy(qMu, ws.qMu)
						n = crossFloats(cm, g, q, false)
						f = exactSlab(n)
						cross(&f, out, cm, g, q, qMu, nil)
						if f.off != 0 || untouched(&f) != 0 {
							t.Fatalf("%s, G=%d Q=%d: an inference pass left %d on the stack and %d of crossFloats %d unwritten", where, gi, qi, f.off, untouched(&f), n)
						}
					}
				}
			}
		}
	}
}

// TestInferWrapperIsTheKernel pins the allocating convenience wrapper to
// the reference too: it is what the Forward and Theorem-2 tests call.
func TestInferWrapperIsTheKernel(t *testing.T) {
	db := testDB(23, 6)
	m, vocab := newTestModel(t, db, 2, 8)
	for i := 0; i+1 < len(db); i++ {
		g, q := Build(db[i], 2, vocab), Build(db[i+1], 2, vocab)
		if got, want := m.Infer(g, q), refInfer(m, g, q); !sameBits(got, want) {
			t.Fatalf("pair %d: Infer %v; reference %v", i, got, want)
		}
	}
}

// TestCrossAllocs: a warmed Cross call allocates nothing, and keeps
// allocating nothing across garbage collections (the workspace is plain
// memory the search owns, not a sync.Pool entry).
func TestCrossAllocs(t *testing.T) {
	vocab := vocabOf(52)
	gs := labelledGraphs(3, 8, vocab)
	m := NewCrossModel(nn.NewParams(), "m", Config{Layers: 2, Dim: 16, Vocab: vocab}, rand.New(rand.NewSource(1)))
	cs := make([]*Compressed, len(gs))
	for i, g := range gs {
		cs[i] = Build(g, 2, vocab)
	}
	ws := NewWorkspace()
	out := make([]float64, 32)
	run := func() {
		ws.Bind(m, cs[0])
		for _, g := range cs {
			ws.Cross(out, g)
		}
	}
	run()
	runtime.GC()
	runtime.GC()
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("warmed Bind+Cross sweep allocates %v objects per run", n)
	}
}

func TestWorkspaceSlabsGrowByReplacement(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Ints(4)
	copy(a, []int{1, 2, 3, 4})
	b := ws.Ints(1000) // replaces the slab
	b[0] = 9
	if a[0] != 1 || a[3] != 4 {
		t.Fatalf("ints handed out before a growth were clobbered: %v", a)
	}
	f := ws.Floats(3)
	f[0], f[2] = 1.5, 2.5
	g := ws.Floats(5000)
	g[0] = 7
	if f[0] != 1.5 || f[2] != 2.5 {
		t.Fatalf("floats handed out before a growth were clobbered: %v", f)
	}
	ws.PopFloats(5000)
	ws.PopFloats(3)
	if ws.f.off != 0 {
		t.Fatalf("float stack at %d after popping everything", ws.f.off)
	}
	bs := ws.Batches(2)
	bs = append(bs, a[:2], a[2:])
	if len(bs) != 2 || cap(bs) != 2 {
		t.Fatalf("Batches(2) = len %d cap %d", len(bs), cap(bs))
	}
}

// TestWorkspaceMemo at a toy width, at h_{G′,Q}'s (2·Dim = 32) and at the
// width M_rk keeps (heads × Hidden = 160).
func TestWorkspaceMemo(t *testing.T) {
	for _, width := range []int{3, 32, 160} {
		ws := NewWorkspace()
		ws.StartMemo(width)
		first := make([][]float64, 100)
		for id := range first {
			row, hit := ws.MemoRow(id * 7)
			if hit || len(row) != width {
				t.Fatalf("width %d: first MemoRow(%d) = len %d, hit %v", width, id*7, len(row), hit)
			}
			row[0], row[width-1] = float64(id), float64(id)+0.5
			first[id] = row
		}
		for id := 99; id >= 0; id-- { // rows survived the table's growth, where they were
			row, hit := ws.MemoRow(id * 7)
			if !hit || &row[0] != &first[id][0] || row[0] != float64(id) || row[width-1] != float64(id)+0.5 {
				t.Fatalf("width %d: MemoRow(%d) = %v, hit %v", width, id*7, row, hit)
			}
		}
		chunks := len(ws.rows)
		for i, c := range ws.rows {
			if len(c) == 0 || 8*len(c) > 16<<10 {
				t.Fatalf("width %d: chunk %d of %d holds %d bytes; want at most 16 KB", width, i, chunks, 8*len(c))
			}
		}
		ws.Ints(8)
		ws.Reset()
		if row, hit := ws.MemoRow(7); hit || len(row) != width {
			t.Fatalf("width %d: memo survived Reset: len %d, hit %v", width, len(row), hit)
		}
		if len(ws.rows) != chunks || ws.ints.off != 0 {
			t.Fatalf("width %d: Reset dropped the memo's chunks (%d -> %d) or kept the id slab's offset (%d)", width, chunks, len(ws.rows), ws.ints.off)
		}
		ws.StartMemo(width - 1)
		if row, hit := ws.MemoRow(7); hit || len(row) != width-1 || len(ws.rows) != 1 {
			t.Fatalf("width %d: memo survived a width change: len %d, hit %v, %d chunks", width, len(row), hit, len(ws.rows))
		}
	}
}

// fuzzGraph decodes a graph of at most 30 nodes from bytes: the node
// count, one label byte per node (four vocabulary labels and two the
// vocabulary has never seen), then one bit per node pair in lexicographic
// order. Missing bytes read as zero, so every input decodes.
func fuzzGraph(data []byte) *graph.Graph {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	g := graph.New(-1)
	n := int(at(0)) % 31
	for u := 0; u < n; u++ {
		g.AddNode(string(rune('A' + at(1+u)%6)))
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

// fuzzWS is shared by every fuzz execution of a worker process, so each
// input runs on whatever the previous ones left in the slabs.
var fuzzWS = NewWorkspace()

// FuzzInferMatchesReference holds the workspace kernel to the matrix
// kernels it replaced on arbitrary pairs of graphs up to 30 nodes, in
// both argument orders, at every depth, compressed and raw, on both
// bodies of the mat row kernels. shape picks layers (1-3),
// raw-vs-compressed and the embedding width (1-24: every column block and
// tail the vector bodies have, 16 included).
func FuzzInferMatchesReference(f *testing.F) {
	f.Add([]byte{}, []byte{4, 0, 1, 2, 3, 0x29}, uint8(1))
	f.Fuzz(func(t *testing.T, a, b []byte, shape uint8) {
		layers := 1 + int(shape)%3
		dim := 1 + int(shape>>3)%24
		build := Build
		if shape&4 != 0 {
			build = BuildRaw
		}
		vocab := vocabFromLabels("A", "B", "C", "D")
		m := NewCrossModel(nn.NewParams(), "m", Config{Layers: layers, Dim: dim, Vocab: vocab}, rand.New(rand.NewSource(int64(shape))))
		g, q := build(fuzzGraph(a), layers, vocab), build(fuzzGraph(b), layers, vocab)
		got := make([]float64, 2*dim)
		mat.EachBody(func(body string) {
			for _, pair := range [][2]*Compressed{{g, q}, {q, g}} {
				fuzzWS.Bind(m, pair[1])
				fuzzWS.Cross(got, pair[0])
				if want := refInfer(m, pair[0], pair[1]); !sameBits(got, want) {
					t.Fatalf("%s body, layers %d dim %d raw %v:\nkernel    %v\nreference %v", body, layers, dim, shape&4 != 0, got, want)
				}
			}
		})
		if fuzzWS.f.off != 0 {
			t.Fatalf("Cross left %d floats on the stack", fuzzWS.f.off)
		}
		// 30 groups a side, three layers, a 24-wide model: a few thousand
		// floats. A slab past 1 MiB means growth ran away.
		if n := len(fuzzWS.f.buf); n > 1<<17 {
			t.Fatalf("float slab grew to %d floats on graphs of at most 30 nodes", n)
		}
	})
}

// benchPairs builds a model at the benchmark's Dim 16 and two layers, and
// 16 compressed graphs of one shape: "aids", a 52-wide vocabulary and
// ~8-26-node molecules, or "syn", dataset.SYN's 6-wide vocabulary and
// ~10-node graphs — the cross calls of the syn_hung workload.
func benchPairs(b *testing.B, shape string) (*CrossModel, []*Compressed) {
	b.Helper()
	var vocab *Vocab
	gs := make([]*graph.Graph, 16)
	switch shape {
	case "aids":
		vocab = vocabOf(52)
		gen := graph.NewGenerator(9)
		for i := range gs {
			gs[i] = gen.MoleculeLike(8+i%19, 1+i%3, vocab.Labels(), 0.5)
		}
	case "syn":
		db := dataset.SYN(0.00002).Generate()
		vocab = NewVocab(db)
		copy(gs, db)
	}
	m := NewCrossModel(nn.NewParams(), "m", Config{Layers: 2, Dim: 16, Vocab: vocab}, rand.New(rand.NewSource(1)))
	cs := make([]*Compressed, len(gs))
	for i, g := range gs {
		cs[i] = Build(g, 2, vocab)
	}
	return m, cs
}

var (
	benchSink   []float64
	benchShapes = []string{"aids", "syn"}
)

func BenchmarkCrossInfer(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape, func(b *testing.B) {
			m, cs := benchPairs(b, shape)
			ws := NewWorkspace()
			out := make([]float64, 32)
			ws.Bind(m, cs[0])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.Cross(out, cs[i%len(cs)])
			}
			benchSink = out
		})
	}
}

func BenchmarkCrossInferReference(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape, func(b *testing.B) {
			m, cs := benchPairs(b, shape)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = refInfer(m, cs[i%len(cs)], cs[0])
			}
		})
	}
}

// TestLogSizeIsLogOfSize covers both constructions, levels that share the
// zero row (all singletons) and levels that do not, and a graph too large
// to share it.
func TestLogSizeIsLogOfSize(t *testing.T) {
	vocab := vocabOf(6)
	gs := append(labelledGraphs(8, 12, vocab), graph.NewGenerator(1).MoleculeLike(len(zeroLogs)+6, 2, vocab.Labels(), 0.3))
	for gi, g := range gs {
		for _, c := range []*Compressed{Build(g, 2, vocab), BuildRaw(g, 2, vocab)} {
			for l, lv := range c.Levels {
				if len(lv.LogSize) != len(lv.Size) {
					t.Fatalf("graph %d level %d: %d log sizes for %d groups", gi, l, len(lv.LogSize), len(lv.Size))
				}
				for i, s := range lv.Size {
					if lv.LogSize[i] != math.Log(s) {
						t.Fatalf("graph %d level %d: LogSize[%d] = %v for size %v", gi, l, i, lv.LogSize[i], s)
					}
				}
			}
		}
	}
}
