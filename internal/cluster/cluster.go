// Package cluster provides the offline clustering used by the optimized
// initial-node selection (Sec. V-B2): graph embeddings plus KMeans. The
// paper uses node2vec-style embeddings; as a deterministic, training-free
// stand-in we embed each graph by its normalized label histogram augmented
// with degree and size statistics, which captures the same
// coarse-structure signal GED clusters on.
package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/cg"
)

// FeatureEmbedder is the deterministic structural embedder: normalized
// label histogram over a vocabulary, degree histogram (capped), and
// normalized size features.
type FeatureEmbedder struct {
	Vocab *cg.Vocab
	// MaxDegree caps the degree histogram (default 8).
	MaxDegree int
	// SizeScale normalizes node/edge counts (default 50).
	SizeScale float64
}

// NewFeatureEmbedder builds an embedder over db's label vocabulary.
func NewFeatureEmbedder(db graph.Database) *FeatureEmbedder {
	return &FeatureEmbedder{Vocab: cg.NewVocab(db), MaxDegree: 8, SizeScale: 50}
}

// Dim returns the embedding dimension.
func (e *FeatureEmbedder) Dim() int { return e.Vocab.Size() + e.MaxDegree + 1 + 2 }

// Embed maps g to its Dim-long feature vector.
func (e *FeatureEmbedder) Embed(g *graph.Graph) []float64 {
	v := make([]float64, e.Dim())
	n := float64(g.N())
	if n == 0 {
		return v
	}
	for u := 0; u < g.N(); u++ {
		v[e.Vocab.Index(g.Label(u))] += 1 / n
		d := g.Degree(u)
		if d > e.MaxDegree {
			d = e.MaxDegree
		}
		v[e.Vocab.Size()+d] += 1 / n
	}
	base := e.Vocab.Size() + e.MaxDegree + 1
	v[base] = n / e.SizeScale
	v[base+1] = float64(g.M()) / e.SizeScale
	return v
}

// KMeans is a fitted clustering.
type KMeans struct {
	Centroids [][]float64
	// Assign[i] is the cluster of input point i.
	Assign []int
	// Members[c] lists the point indices of cluster c.
	Members [][]int
}

// K returns the number of clusters.
func (k *KMeans) K() int { return len(k.Centroids) }

// FitKMeans clusters points into k groups with Lloyd's algorithm and
// kmeans++-style seeding, deterministic under seed.
func FitKMeans(points [][]float64, k int, iters int, seed int64) (*KMeans, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	if k < 1 {
		return nil, fmt.Errorf("cluster: k = %d", k)
	}
	if k > len(points) {
		k = len(points)
	}
	if iters <= 0 {
		iters = 25
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("cluster: point %d has dim %d; want %d", i, len(p), dim)
		}
	}

	// kmeans++ seeding.
	rng := rand.New(rand.NewSource(seed))
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, clonePoint(points[rng.Intn(len(points))]))
	d2 := make([]float64, len(points))
	for len(centroids) < k {
		total := 0.0
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := sqDist(p, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All points coincide with centroids; seed the rest randomly.
			centroids = append(centroids, clonePoint(points[rng.Intn(len(points))]))
			continue
		}
		x := rng.Float64() * total
		idx := 0
		for i, d := range d2 {
			x -= d
			if x <= 0 {
				idx = i
				break
			}
		}
		centroids = append(centroids, clonePoint(points[idx]))
	}

	assign := make([]int, len(points))
	for it := 0; it < iters; it++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, cen := range centroids {
				if d := sqDist(p, cen); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids.
		counts := make([]int, len(centroids))
		sums := make([][]float64, len(centroids))
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for j, v := range p {
				sums[c][j] += v
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				centroids[c] = clonePoint(points[rng.Intn(len(points))])
				continue
			}
			for j := range centroids[c] {
				centroids[c][j] = sums[c][j] / float64(counts[c])
			}
		}
		if !changed && it > 0 {
			break
		}
	}

	km := &KMeans{Centroids: centroids, Assign: assign, Members: make([][]int, len(centroids))}
	for i, c := range assign {
		km.Members[c] = append(km.Members[c], i)
	}
	return km, nil
}

// Nearest returns the centroid closest to p.
func (k *KMeans) Nearest(p []float64) int {
	best, bestD := 0, math.Inf(1)
	for c, cen := range k.Centroids {
		if d := sqDist(p, cen); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// Inertia returns the within-cluster sum of squared distances of the
// fitted points.
func (k *KMeans) Inertia(points [][]float64) float64 {
	total := 0.0
	for i, p := range points {
		total += sqDist(p, k.Centroids[k.Assign[i]])
	}
	return total
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func clonePoint(p []float64) []float64 { return append([]float64(nil), p...) }
