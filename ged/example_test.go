package ged_test

import (
	"fmt"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
)

func ExampleExact() {
	// Two small molecules: C-N-C and C-N-O.
	g := graph.New(-1)
	g.AddNode("C")
	g.AddNode("N")
	g.AddNode("C")
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)

	h := graph.New(-1)
	h.AddNode("C")
	h.AddNode("N")
	h.AddNode("O")
	h.MustAddEdge(0, 1)
	h.MustAddEdge(1, 2)

	d, ok := ged.Exact(g, h, 0)
	fmt.Println(d, ok)
	// Output: 1 true
}

func ExampleEnsemble() {
	gen := graph.NewGenerator(1)
	labels := []string{"C", "N", "O"}
	g := gen.MoleculeLike(12, 1, labels, 0.3)
	h := gen.Mutate(g, 2, labels)

	// The paper's ground-truth protocol: exact GED within a budget, else
	// the best of three approximations.
	metric := ged.Ensemble{ExactBudget: 1000, BeamWidth: 8}
	d := metric.Distance(g, h)
	fmt.Println(d > 0, d <= 4) // two edits cost at most 4 (node ops touch edges)
	// Output: true true
}

func ExampleCounter() {
	gen := graph.NewGenerator(2)
	db := graph.NewDatabase([]*graph.Graph{
		gen.MoleculeLike(8, 1, []string{"C", "N"}, 0.3),
		gen.MoleculeLike(9, 1, []string{"C", "N"}, 0.3),
	})
	counter := ged.NewCounter(ged.MetricFunc(ged.Hungarian))
	counter.Distance(db[0], db[1])
	counter.Distance(db[1], db[0]) // symmetric: served from cache
	fmt.Println(counter.Calls())
	// Output: 1
}
