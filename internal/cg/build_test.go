package cg

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/dataset"
)

// TestBuildMatchesReference holds Build and BuildRaw to refBuild and
// refBuildRaw, reflect.DeepEqual at 0-3 layers, on the graphs of
// FuzzInferMatchesReference's corpus and seeds and on every graph of the
// benchmark's two databases, AIDS@0.002 and SYN@0.00064.
func TestBuildMatchesReference(t *testing.T) {
	type named struct {
		name string
		g    *graph.Graph
	}
	var gs []named
	corpus := filepath.Join("testdata", "fuzz", "FuzzInferMatchesReference")
	files, err := os.ReadDir(corpus)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(corpus, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			arg, ok := strings.CutPrefix(line, "[]byte(")
			if !ok {
				continue
			}
			b, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
			if err != nil {
				t.Fatalf("%s line %d: %v", f.Name(), i+1, err)
			}
			gs = append(gs, named{f.Name() + "/" + strconv.Itoa(i), fuzzGraph([]byte(b))})
		}
	}
	if len(gs) == 0 {
		t.Fatal("no corpus graphs read")
	}
	gs = append(gs, named{"seed/a", fuzzGraph(nil)}, named{"seed/b", fuzzGraph([]byte{4, 0, 1, 2, 3, 0x29})})
	corpusVocab := vocabFromLabels("A", "B", "C", "D")
	check := func(name string, g *graph.Graph, vocab *Vocab) {
		t.Helper()
		for L := 0; L <= 3; L++ {
			if got, want := Build(g, L, vocab), refBuild(g, L, vocab); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d layers: Build\n%+v\nreference\n%+v", name, L, got, want)
			}
			if got, want := BuildRaw(g, L, vocab), refBuildRaw(g, L, vocab); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d layers: BuildRaw\n%+v\nreference\n%+v", name, L, got, want)
			}
		}
	}
	for _, c := range gs {
		check(c.name, c.g, corpusVocab)
	}
	for _, spec := range []dataset.Spec{dataset.AIDS(0.002), dataset.SYN(0.00064)} {
		db := spec.Generate()
		vocab := NewVocab(db)
		for _, g := range db {
			check(spec.Name+"/"+strconv.Itoa(g.ID), g, vocab)
		}
	}
}

// refBuild is Build as it was written before it took WL's classes as its
// groups: it renumbers each level's classes in first-seen order and sums
// each group's in-edge weights in a map.
func refBuild(g *graph.Graph, L int, vocab *Vocab) *Compressed {
	wl := graph.WL(g, L)
	c := &Compressed{N: g.N(), Levels: make([]Level, L+1)}

	// groupOf[l][u] = group index of node u at level l. WL class ids are
	// dense per level already, but not necessarily contiguous from 0 for
	// this graph alone (joint labeling); remap to local dense ids.
	groupOf := make([][]int, L+1)
	for l := 0; l <= L; l++ {
		remap := make(map[int]int)
		groupOf[l] = make([]int, g.N())
		for u := 0; u < g.N(); u++ {
			cls := wl.Labels[l][u]
			id, ok := remap[cls]
			if !ok {
				id = len(remap)
				remap[cls] = id
			}
			groupOf[l][u] = id
		}
		ng := len(remap)
		lv := &c.Levels[l]
		lv.Size = make([]float64, ng)
		rep := make([]int, ng) // a representative node per group
		for i := range rep {
			rep[i] = -1
		}
		for u := 0; u < g.N(); u++ {
			gi := groupOf[l][u]
			lv.Size[gi]++
			if rep[gi] == -1 {
				rep[gi] = u
			}
		}
		lv.LogSize = logSizes(lv.Size, g.N())
		if l == 0 {
			lv.Feature = make([]int, ng)
			for i, u := range rep {
				lv.Feature[i] = vocab.Index(g.Label(u))
			}
		} else {
			lv.In = make([][]Lin, ng)
			for i, u := range rep {
				// Weighted in-edges per Algorithm 5: |N(u) ∩ group| for
				// each previous-level group, +1 for u's own group.
				w := make(map[int]float64)
				w[groupOf[l-1][u]]++ // self term
				for _, v := range g.Neighbors(u) {
					w[groupOf[l-1][v]]++
				}
				ins := make([]Lin, 0, len(w))
				for from, weight := range w {
					ins = append(ins, Lin{Row: from, W: weight})
				}
				sort.Slice(ins, func(a, b int) bool { return ins[a].Row < ins[b].Row })
				lv.In[i] = ins
			}
		}
	}
	return c
}

// refBuildRaw is BuildRaw as it was written before it shared Build's level
// assembly: one unit in-edge per neighbour and one for the node itself.
func refBuildRaw(g *graph.Graph, L int, vocab *Vocab) *Compressed {
	n := g.N()
	c := &Compressed{N: n, Levels: make([]Level, L+1)}
	for l := 0; l <= L; l++ {
		lv := &c.Levels[l]
		lv.Size = make([]float64, n)
		for i := range lv.Size {
			lv.Size[i] = 1
		}
		lv.LogSize = logSizes(lv.Size, n)
		if l == 0 {
			lv.Feature = make([]int, n)
			for u := 0; u < n; u++ {
				lv.Feature[u] = vocab.Index(g.Label(u))
			}
			continue
		}
		lv.In = make([][]Lin, n)
		for u := 0; u < n; u++ {
			ins := make([]Lin, 0, g.Degree(u)+1)
			ins = append(ins, Lin{Row: u, W: 1})
			for _, v := range g.Neighbors(u) {
				ins = append(ins, Lin{Row: v, W: 1})
			}
			sort.Slice(ins, func(a, b int) bool { return ins[a].Row < ins[b].Row })
			lv.In[u] = ins
		}
	}
	return c
}
