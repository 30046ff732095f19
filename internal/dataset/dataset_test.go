package dataset

import (
	"errors"
	"math"
	"testing"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/pg"
)

func TestScaled(t *testing.T) {
	s := AIDS(0.01)
	if s.Graphs != 426 {
		t.Fatalf("AIDS@0.01 graphs = %d; want 426", s.Graphs)
	}
	if got := AIDS(0.0000001).Graphs; got != 2 {
		t.Fatalf("tiny scale graphs = %d; want floor 2", got)
	}
	if s.AvgNodes != 25.6 || s.NumLabels != 51 {
		t.Fatalf("scaling changed per-graph stats: %+v", s)
	}
}

func TestGenerateMatchesTableIStatistics(t *testing.T) {
	cases := []struct {
		spec      Spec
		tolNodes  float64
		tolLabels int
	}{
		{AIDS(0.01), 0.2, 15},
		{LINUX(0.01), 0.2, 10},
		{PubChem(0.02), 0.2, 3},
		{SYN(0.0005), 0.25, 2},
	}
	for _, c := range cases {
		db := c.spec.Generate()
		if len(db) != c.spec.Graphs {
			t.Fatalf("%s: %d graphs; want %d", c.spec.Name, len(db), c.spec.Graphs)
		}
		st := db.Stats()
		if rel := math.Abs(st.AvgNodes-c.spec.AvgNodes) / c.spec.AvgNodes; rel > c.tolNodes {
			t.Errorf("%s: avg |V| = %.1f; spec %.1f (rel err %.2f)", c.spec.Name, st.AvgNodes, c.spec.AvgNodes, rel)
		}
		if st.NumLabels > c.spec.NumLabels {
			t.Errorf("%s: %d labels > alphabet %d", c.spec.Name, st.NumLabels, c.spec.NumLabels)
		}
		if st.NumLabels < c.spec.NumLabels-c.tolLabels {
			t.Errorf("%s: only %d labels materialized of %d", c.spec.Name, st.NumLabels, c.spec.NumLabels)
		}
		for _, g := range db {
			if err := g.Validate(); err != nil {
				t.Fatalf("%s: invalid graph: %v", c.spec.Name, err)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := AIDS(0.005).Generate()
	b := AIDS(0.005).Generate()
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("graph %d differs between runs", i)
		}
	}
}

func TestGenerateHasClusterStructure(t *testing.T) {
	// Graphs inside a cluster must be much closer than across clusters.
	spec := AIDS(0.005)
	db := spec.Generate()
	metric := ged.MetricFunc(ged.Hungarian)
	intra := metric.Distance(db[0], db[1]) // same cluster (seed + first mutant)
	inter := 0.0
	for i := 0; i < 5; i++ {
		inter += metric.Distance(db[0], db[len(db)-1-i*spec.ClusterSize])
	}
	inter /= 5
	if intra >= inter {
		t.Fatalf("no cluster structure: intra %v >= inter %v", intra, inter)
	}
}

func TestWorkloadAndSplit(t *testing.T) {
	spec := AIDS(0.003)
	db := spec.Generate()
	queries := Workload(db, spec, 40, 7)
	if len(queries) != 40 {
		t.Fatalf("workload size %d", len(queries))
	}
	for i, q := range queries {
		if q.ID != -1 {
			t.Fatalf("query %d has database ID %d", i, q.ID)
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("query %d invalid: %v", i, err)
		}
	}
	train, val, test := Split(queries)
	if len(train) != 24 || len(val) != 8 || len(test) != 8 {
		t.Fatalf("split = %d/%d/%d", len(train), len(val), len(test))
	}
}

// The benchmark draws every query pool through FixedWorkload
// (benchmark/workload.go): a spec must regenerate its query alone.
func TestFixedWorkload(t *testing.T) {
	spec := AIDS(0.003)
	db := spec.Generate()
	labels := spec.Labels()
	specs := []QuerySpec{
		{Base: 0, Ops: 0, Seed: 11},
		{Base: len(db) - 1, Ops: 2, Seed: 12},
		{Base: 3, Ops: 1, Seed: 13},
		{Base: 3, Ops: 1, Seed: 14},
	}
	first, err := FixedWorkload(db, spec, specs)
	if err != nil {
		t.Fatalf("FixedWorkload: %v", err)
	}
	again, err := FixedWorkload(db, spec, specs)
	if err != nil {
		t.Fatalf("FixedWorkload, second call: %v", err)
	}
	reversed := make([]QuerySpec, len(specs))
	for i, s := range specs {
		reversed[len(specs)-1-i] = s
	}
	back, err := FixedWorkload(db, spec, reversed)
	if err != nil {
		t.Fatalf("FixedWorkload, reversed: %v", err)
	}
	for i, s := range specs {
		q := first[i]
		if q.ID != -1 {
			t.Fatalf("query %d has database ID %d", i, q.ID)
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("query %d invalid: %v", i, err)
		}
		if !q.Equal(again[i]) {
			t.Fatalf("query %d differs between two calls", i)
		}
		if !q.Equal(back[len(specs)-1-i]) {
			t.Fatalf("query %d depends on its position in the list", i)
		}
		if want := graph.NewGenerator(s.Seed).Mutate(db[s.Base], s.Ops, labels); !q.Equal(want) {
			t.Fatalf("query %d is not NewGenerator(%d).Mutate(db[%d], %d, labels)", i, s.Seed, s.Base, s.Ops)
		}
	}
	if !first[0].Equal(db[0]) {
		t.Fatal("zero ops changed the base graph")
	}

	for _, c := range []struct {
		name string
		spec QuerySpec
		want error
	}{
		{"base past the end", QuerySpec{Base: len(db), Seed: 1}, ErrQueryBase},
		{"negative base", QuerySpec{Base: -1, Seed: 1}, ErrQueryBase},
		{"negative ops", QuerySpec{Base: 0, Ops: -1, Seed: 1}, ErrQueryOps},
	} {
		got, err := FixedWorkload(db, spec, []QuerySpec{specs[0], c.spec})
		if !errors.Is(err, c.want) || got != nil {
			t.Errorf("%s: got %d queries, err %v; want %v", c.name, len(got), err, c.want)
		}
	}
}

func TestBruteForceKNNAndRecall(t *testing.T) {
	spec := AIDS(0.002)
	db := spec.Generate()
	q := Workload(db, spec, 1, 3)[0]
	metric := ged.MetricFunc(ged.Hungarian)
	truth := BruteForceKNN(db, q, metric, 5)
	if len(truth) != 5 {
		t.Fatalf("truth size %d", len(truth))
	}
	for i := 1; i < len(truth); i++ {
		if truth[i-1].Dist > truth[i].Dist {
			t.Fatalf("truth not sorted: %v", truth)
		}
	}
	if Recall(truth, truth) != 1 {
		t.Fatalf("self recall != 1")
	}
	// Replacing the last element with a far node drops recall unless tied.
	worse := append(append([]pg.Result(nil), truth[:4]...), pg.Result{ID: -99, Dist: truth[4].Dist + 100})
	if r := Recall(worse, truth); r != 0.8 {
		t.Fatalf("recall = %v; want 0.8", r)
	}
	// A different id at the same k-th distance counts as a hit.
	tied := append(append([]pg.Result(nil), truth[:4]...), pg.Result{ID: -99, Dist: truth[4].Dist})
	if r := Recall(tied, truth); r != 1 {
		t.Fatalf("tied recall = %v; want 1", r)
	}
	if Recall(nil, nil) != 1 {
		t.Fatalf("empty recall != 1")
	}
}

func TestComputeGroundTruthParallelMatchesSequential(t *testing.T) {
	spec := SYN(0.00003)
	db := spec.Generate()
	queries := Workload(db, spec, 6, 11)
	metric := ged.MetricFunc(ged.VJ)
	gts := ComputeGroundTruth(db, queries, metric, 3)
	if len(gts) != 6 {
		t.Fatalf("%d ground truths", len(gts))
	}
	for i, gt := range gts {
		want := BruteForceKNN(db, queries[i], metric, 3)
		for j := range want {
			if gt.Results[j] != want[j] {
				t.Fatalf("query %d: parallel %v != sequential %v", i, gt.Results, want)
			}
		}
	}
}

func TestShards(t *testing.T) {
	db := SYN(0.00005).Generate()
	shards := Shards(db, 4)
	if len(shards) != 4 {
		t.Fatalf("%d shards", len(shards))
	}
	total := 0
	for _, s := range shards {
		total += len(s)
		for i, g := range s {
			if g.ID != i {
				t.Fatalf("shard graph has ID %d at position %d", g.ID, i)
			}
		}
	}
	if total != len(db) {
		t.Fatalf("shards hold %d graphs; want %d", total, len(db))
	}
	// Original db IDs untouched (clones were used).
	for i, g := range db {
		if g.ID != i {
			t.Fatalf("original db mutated at %d", i)
		}
	}
	// Degenerate m.
	if got := Shards(db, 0); len(got) != 1 {
		t.Fatalf("Shards(db, 0) = %d shards", len(got))
	}
}

func TestLabelsAlphabet(t *testing.T) {
	s := PubChem(1)
	labels := s.Labels()
	if len(labels) != 10 || labels[0] != "L00" || labels[9] != "L09" {
		t.Fatalf("labels = %v", labels)
	}
}

func TestGraphKinds(t *testing.T) {
	for _, spec := range []Spec{AIDS(0.001), LINUX(0.001), SYN(0.00002)} {
		db := spec.Generate()
		if len(db) < 2 {
			t.Fatalf("%s too small", spec.Name)
		}
		for _, g := range db {
			if !g.IsConnected() {
				t.Fatalf("%s generated a disconnected graph", spec.Name)
			}
		}
	}
	_ = graph.Database{}
}
