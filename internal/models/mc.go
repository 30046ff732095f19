package models

import (
	"context"
	"sort"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/cg"
	"github.com/lansearch/lan/internal/cluster"
	"github.com/lansearch/lan/internal/nn"
	"github.com/lansearch/lan/internal/pg"
)

// ClusterModel is M_c (Sec. V-B2): given a cluster of the database and a
// query it predicts |C ∩ N_Q|, so that M_nh only needs to run inside the
// top-predicted clusters instead of over the whole database. Inputs are
// the cluster centroid embedding concatenated with the query embedding.
type ClusterModel struct {
	Cfg    Config
	Params *nn.Params

	embedder *cluster.FeatureEmbedder
	clusters *cluster.KMeans
	head     *nn.MLP
}

// NewClusterModel builds an untrained M_c over a fitted clustering.
func NewClusterModel(cfg Config, embedder *cluster.FeatureEmbedder, km *cluster.KMeans) *ClusterModel {
	p := nn.NewParams()
	rng := newRNG(cfg.Seed, 0x33c)
	// Interaction features |c-q| and c⊙q make the similarity signal
	// (large intersection when the centroid matches the query) nearly
	// linear for the MLP.
	in := 4 * embedder.Dim()
	return &ClusterModel{
		Cfg:      cfg,
		Params:   p,
		embedder: embedder,
		clusters: km,
		head:     nn.NewMLP(p, "mc.head", []int{in, cfg.Hidden(), 1}, rng),
	}
}

// Clusters exposes the underlying clustering.
func (m *ClusterModel) Clusters() *cluster.KMeans { return m.clusters }

// WithClusters returns a shallow copy of M_c over a pinned clustering
// view — how a mutable index's snapshots isolate readers from the
// writer's membership updates.
func (m *ClusterModel) WithClusters(km *cluster.KMeans) *ClusterModel {
	view := *m
	view.clusters = km
	return &view
}

// NearestCentroid returns the cluster whose centroid is closest (L2) to
// g's feature embedding — how inserted graphs join the fitted
// clustering without refitting it.
func (m *ClusterModel) NearestCentroid(g *graph.Graph) int {
	return m.clusters.Nearest(m.embedder.Embed(g))
}

// features appends M_c's head input for cluster c to in: centroid, query
// embedding, |c-q| and c⊙q.
func (m *ClusterModel) features(in []float64, c int, qemb []float64) []float64 {
	cen := m.clusters.Centroids[c]
	in = append(in, cen...)
	in = append(in, qemb...)
	for i := range cen {
		d := cen[i] - qemb[i]
		if d < 0 {
			d = -d
		}
		in = append(in, d)
	}
	for i := range cen {
		in = append(in, cen[i]*qemb[i])
	}
	return in
}

// Predict returns the predicted intersection size for every cluster (one
// input and one scratch buffer for all clusters; the values are the
// training forward's, as MLP.Infer's arithmetic is MLP.Forward's).
func (m *ClusterModel) Predict(q *graph.Graph) []float64 {
	qemb := m.embedder.Embed(q)
	width := 4 * m.embedder.Dim()
	buf := make([]float64, width+2*m.head.Width())
	out := make([]float64, m.clusters.K())
	for c := range out {
		out[c] = m.head.Infer(m.features(buf[:0], c, qemb), buf[width:])[0]
	}
	return out
}

// TopClusters returns the indices of the n clusters with the largest
// predicted intersection, in descending order.
func (m *ClusterModel) TopClusters(q *graph.Graph, n int) []int {
	pred := m.Predict(q)
	idx := make([]int, len(pred))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return pred[idx[a]] > pred[idx[b]] })
	if n < len(idx) {
		idx = idx[:n]
	}
	return idx
}

// ClusterExample is one M_c training row: the true |C ∩ N_Q| per cluster
// for one query.
type ClusterExample struct {
	Qi            int
	Intersections []float64
}

// BuildClusterTrainingSet computes true intersection sizes from the
// distance table.
func BuildClusterTrainingSet(table *DistanceTable, km *cluster.KMeans, gammaStar float64) []ClusterExample {
	out := make([]ClusterExample, len(table.Queries))
	for qi, row := range table.D {
		inter := make([]float64, km.K())
		for g, d := range row {
			if d <= gammaStar {
				inter[km.Assign[g]]++
			}
		}
		out[qi] = ClusterExample{Qi: qi, Intersections: inter}
	}
	return out
}

// Train fits M_c by mean squared error on intersection sizes. The skew of
// the distribution (most clusters intersect N_Q in 0 graphs) is what the
// network must learn, per the paper.
func (m *ClusterModel) Train(table *DistanceTable, examples []ClusterExample, opts TrainOptions) error {
	if len(examples) == 0 {
		return errf("empty M_c training set")
	}
	in := make([]float64, 0, 4*m.embedder.Dim())
	acts, buf := make([]float64, m.head.Acts()), make([]float64, 2*m.head.Width())
	var dOut [1]float64
	trainLoop(m.Params, len(examples), opts, m.Cfg.Seed, func(idx int) float64 {
		ex := examples[idx]
		qemb := m.embedder.Embed(table.Queries[ex.Qi])
		total := 0.0
		for c, truth := range ex.Intersections {
			in = m.features(in[:0], c, qemb)
			loss, d := nn.MSE(m.head.Forward(acts, in)[0], truth)
			dOut[0] = d
			m.head.Backward(in, acts, dOut[:], nil, buf)
			total += loss
		}
		return total / float64(len(ex.Intersections))
	})
	return nil
}

// LAN_IS's two settings, at the paper's values.
const (
	// SelectorTopClusters is the number of clusters M_c selects.
	SelectorTopClusters = 3
	// SelectorSamples is s, the number of verified candidates (the paper:
	// precision > 0.7 makes 4 samples hit N_Q w.p. > 0.99).
	SelectorSamples = 4
)

// InitialSelector is LAN_IS (Sec. V-A): M_c prunes to the
// SelectorTopClusters top clusters, M_nh filters their members into the
// predicted neighborhood N̂_Q, and SelectorSamples random samples from N̂_Q
// are verified with true GEDs (charged to the query's DistCache); the best
// sample seeds the routing.
type InitialSelector struct {
	Mnh *NeighborhoodModel
	Mc  *ClusterModel
	// Seed drives sampling.
	Seed int64
	// Predictions, if non-nil, accumulates the number of model
	// predictions made (the |C| + Σ|C'| quantity of Sec. V-B2).
	Predictions *int
	// Exhaustive switches to the basic design of Sec. V-B1: M_nh runs
	// over every database graph instead of only the top clusters'
	// members. O(|D|) predictions — kept for the paper's basic-vs-
	// optimized ablation.
	Exhaustive bool
	// QueryCG, when set, is the query's precomputed compressed GNN-graph
	// (the engine builds it once per search); nil makes Select build it.
	QueryCG *cg.Compressed
	// WS, when set, is the search's inference workspace; nil makes Select
	// run on one of its own.
	WS *cg.Workspace
}

// Select returns the initial node for routing Q over the cache's
// database. Fallbacks: when the predicted neighborhood is empty, the
// graph with the highest M_nh probability among scanned candidates is
// used; when even that fails, the first member of the top cluster. It
// returns -1 when there is no candidate at all — every cluster M_c picked
// is empty, which k-means leaves behind when graphs share one feature
// vector. Cancelling ctx stops the GED sample verification early and
// returns the best candidate found so far — the model predictions
// themselves are cheap and always complete.
func (s *InitialSelector) Select(ctx context.Context, q *graph.Graph, cache *pg.DistCache) int {
	var candidates []int
	if s.Exhaustive {
		candidates = make([]int, len(cache.DB))
		for i := range candidates {
			candidates[i] = i
		}
	} else {
		clusters := s.Mc.TopClusters(q, SelectorTopClusters)
		if s.Predictions != nil {
			*s.Predictions += s.Mc.Clusters().K()
		}
		for _, c := range clusters {
			candidates = append(candidates, s.Mc.Clusters().Members[c]...)
		}
	}
	if len(candidates) == 0 {
		return -1
	}

	qc := s.QueryCG
	if qc == nil {
		qc = s.Mnh.QueryCG(q)
	}
	ws := s.WS
	if ws == nil {
		ws = cg.NewWorkspace()
	}
	s.Mnh.Bind(ws, qc)
	var predicted []int
	bestProb, bestG := -1.0, -1
	for _, g := range candidates {
		p := s.Mnh.ProbCG(ws, cache.DB[g])
		if s.Predictions != nil {
			*s.Predictions++
		}
		if p >= 0.5 {
			predicted = append(predicted, g)
		}
		if p > bestProb {
			bestProb, bestG = p, g
		}
	}
	if len(predicted) == 0 {
		if bestG >= 0 {
			return bestG
		}
		return candidates[0]
	}

	rng := newRNG(s.Seed, int64(q.N())*1315423911^int64(q.M()))
	rng.Shuffle(len(predicted), func(i, j int) { predicted[i], predicted[j] = predicted[j], predicted[i] })
	samples := min(SelectorSamples, len(predicted))
	best, bestD := predicted[0], cache.Dist(predicted[0])
	for _, g := range predicted[1:samples] {
		if ctx.Err() != nil {
			break
		}
		if d := cache.Dist(g); d < bestD {
			best, bestD = g, d
		}
	}
	return best
}
