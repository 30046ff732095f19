package lan

import (
	"math/rand"
	"testing"

	"github.com/lansearch/lan/graph"
)

// isomer is a six-node graph over the labels C,C,C,C,O,N in a shuffled
// order: a ring when ring is set, else a path. Every such graph has the
// same label histogram and one of two degree histograms.
func isomer(t *testing.T, rng *rand.Rand, id int, ring bool) *graph.Graph {
	t.Helper()
	labels := []string{"C", "C", "C", "C", "O", "N"}
	rng.Shuffle(len(labels), func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	g := graph.New(id)
	for _, l := range labels {
		g.AddNode(l)
	}
	for u := 0; u+1 < len(labels); u++ {
		if err := g.AddEdge(u, u+1); err != nil {
			t.Fatal(err)
		}
	}
	if ring {
		if err := g.AddEdge(len(labels)-1, 0); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestSearchEmptyTopClusters: isomers get identical feature vectors, so
// k-means leaves most of its clusters empty and M_c can pick only empty
// ones. Initial selection then has no candidate, and the search must fall
// back to the HNSW entry instead of panicking.
func TestSearchEmptyTopClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := make(graph.Database, 64)
	for i := range db {
		db[i] = isomer(t, rng, i, i%2 == 0)
	}
	train := make([]*graph.Graph, 12)
	for i := range train {
		train[i] = isomer(t, rng, -1, i%2 == 0)
	}
	idx, err := Build(db, train, Options{M: 4, Dim: 6, Epochs: 1, GammaKNN: 4, Clusters: 16, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	const k = 5
	for i := 0; i < 40; i++ {
		q := isomer(t, rng, -1, i%2 == 0)
		res, _, err := idx.Search(q, SearchOptions{K: k, Beam: 10})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(res) != k {
			t.Fatalf("query %d: %d results; want %d", i, len(res), k)
		}
	}
}
