// Package models implements the paper's three learned components and
// their offline training pipelines:
//
//   - M_rk (Sec. IV-C): the neighbor-ranking model. The paper trains 100/y
//     binary partial rankers, where ranker i predicts whether a PG
//     neighbor G' of the current node G is among the top i*y% neighbors
//     by distance to the query Q. We share one cross-graph encoder across
//     the rankers and give each its own MLP head; ordering neighbors by
//     the sum of head probabilities recovers a full (approximate) ranking
//     that the router cuts into batches.
//   - M_nh (Sec. V-B1): the neighborhood-membership model predicting
//     whether a database graph lies in N_Q = {G : d(Q,G) <= gamma*}.
//   - M_c (Sec. V-B2): the cluster-level model predicting |C ∩ N_Q| per
//     cluster, used to prune M_nh predictions from O(|D|) to the selected
//     clusters.
//
// Training data is restricted to the neighborhood of each training query
// (Sec. IV-C) and the M_nh negative class is downsampled (Sec. V-B1),
// exactly as the paper prescribes.
package models

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/cg"
	"github.com/lansearch/lan/internal/nn"
	"github.com/lansearch/lan/internal/pg"
)

// The paper's model shape (Sec. VII), which no build varies: two GNN
// layers, y = 20 % (so 100/y = 5 partial rankers), and a learning rate
// that decays by 0.96 every 5 epochs. Every MLP's hidden width is twice
// the embedding dimension.
const (
	// Layers is the depth of every GNN encoder.
	Layers = 2
	// BatchPercent is the paper's y: ranker head i covers the top
	// (i+1)*y% neighbors, and the router opens them in y% batches.
	BatchPercent = 20
	// Heads is 100/y rounded up: the number of partial rankers.
	Heads = (100 + BatchPercent - 1) / BatchPercent

	lrDecay    = 0.96 // the paper's decay…
	decayEvery = 5    // …applied every decayEvery epochs
)

// Config shapes all three models.
type Config struct {
	// Dim is the embedding dimension of the GNN encoders; the MLP heads'
	// hidden width is 2*Dim.
	Dim int
	// GammaStar is the neighborhood radius gamma*. Calibrate with
	// CalibrateGammaStar.
	GammaStar float64
	// Seed drives parameter initialization and sampling.
	Seed int64
}

// Hidden returns every MLP head's hidden width, 2*Dim.
func (c Config) Hidden() int { return 2 * c.Dim }

// TrainOptions control the optimization loops.
type TrainOptions struct {
	Epochs int
	LR     float64
	// Logf, when set, receives one progress line per epoch. core.Build
	// trains M_rk beside M_nh and M_c when it has more than one worker, so
	// Logf can be called from two goroutines at once and must be safe for
	// that (log.Printf and testing.T.Logf are).
	Logf func(format string, args ...interface{})
}

func (o *TrainOptions) defaults() {
	if o.Epochs <= 0 {
		o.Epochs = 30
	}
	if o.LR <= 0 {
		o.LR = 0.005 // the paper's initial learning rate
	}
	if o.Logf == nil {
		o.Logf = func(string, ...interface{}) {}
	}
}

// CGStore precomputes and caches compressed GNN-graphs for database
// graphs (Sec. VI: data-graph CGs are built offline).
type CGStore struct {
	Vocab *cg.Vocab

	mu    sync.RWMutex
	byID  map[int]*cg.Compressed
	useCG bool
}

// NewCGStore builds a store over db's vocabulary. When useCG is false the
// store produces raw (uncompressed) GNN-graphs — the ablation knob behind
// Fig. 10.
func NewCGStore(db graph.Database, useCG bool) *CGStore {
	return &CGStore{
		Vocab: cg.NewVocab(db),
		byID:  make(map[int]*cg.Compressed),
		useCG: useCG,
	}
}

// For returns the (cached) compressed GNN-graph of g. Graphs with ID >= 0
// are cached; free-standing graphs (queries) are built on the fly.
func (s *CGStore) For(g *graph.Graph) *cg.Compressed {
	if g.ID < 0 {
		return s.build(g)
	}
	// Hits — every lookup of a search once the cache is warm — share the
	// lock; only a miss's insert excludes other searches.
	s.mu.RLock()
	c, ok := s.byID[g.ID]
	s.mu.RUnlock()
	if ok {
		return c
	}
	c = s.build(g)
	s.mu.Lock()
	s.byID[g.ID] = c
	s.mu.Unlock()
	return c
}

// Query builds the compressed GNN-graph of a free-standing query without
// touching the cache. The engine calls this once per search and threads
// the result through every model invocation, instead of rebuilding the
// query CG on each neighbor-ranking call.
func (s *CGStore) Query(q *graph.Graph) *cg.Compressed { return s.build(q) }

func (s *CGStore) build(g *graph.Graph) *cg.Compressed {
	if s.useCG {
		return cg.Build(g, Layers, s.Vocab)
	}
	return cg.BuildRaw(g, Layers, s.Vocab)
}

// DistanceTable holds d(query_i, db_j) for a set of training queries —
// the supervision signal for all three models.
type DistanceTable struct {
	Queries []*graph.Graph
	D       [][]float64 // D[i][j] = d(queries[i], db[j])
}

// ComputeDistanceTable evaluates metric between every query and every
// database graph, one query's row per call on a pg.WorkerPool of workers
// (<= 0 means runtime.NumCPU, as in pg.Build); workers == 1 computes every
// row on the caller.
func ComputeDistanceTable(db graph.Database, queries []*graph.Graph, metric ged.Metric, workers int) *DistanceTable {
	t := &DistanceTable{Queries: queries, D: make([][]float64, len(queries))}
	pool := pg.NewWorkerPool(workers)
	defer pool.Close()
	pool.Run(len(queries), func(i int) {
		row := make([]float64, len(db))
		for j, g := range db {
			row[j] = metric.Distance(g, queries[i])
		}
		t.D[i] = row
	})
	return t
}

// CalibrateGammaStar returns the paper's gamma*: the quantile (e.g. 0.9)
// over training queries of the distance to their knn-th nearest neighbor,
// so that for that fraction of queries N_Q contains the knn-NNs.
func CalibrateGammaStar(t *DistanceTable, knn int, quantile float64) float64 {
	if len(t.D) == 0 {
		return 0
	}
	kth := make([]float64, len(t.D))
	for i, row := range t.D {
		sorted := append([]float64(nil), row...)
		sort.Float64s(sorted)
		idx := knn - 1
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		if idx < 0 {
			idx = 0
		}
		kth[i] = sorted[idx]
	}
	sort.Float64s(kth)
	qi := int(quantile * float64(len(kth)))
	if qi >= len(kth) {
		qi = len(kth) - 1
	}
	return kth[qi]
}

// trainData is what a training step reads besides its example: the
// database, and every training query's compressed GNN-graph — built once
// per Train, where CGStore.For would rebuild a free-standing query's on
// every example — indexed like DistanceTable.Queries.
type trainData struct {
	db      graph.Database
	queries []*cg.Compressed
}

func (s *CGStore) trainData(db graph.Database, table *DistanceTable) trainData {
	td := trainData{db: db, queries: make([]*cg.Compressed, len(table.Queries))}
	for i, q := range table.Queries {
		td.queries[i] = s.Query(q)
	}
	return td
}

// HeadFeatures completes a classifier head's input feat (3*dim floats)
// whose first 2*dim hold a cross embedding h_G || h_Q: the last dim are
// the squared elementwise difference (h_G - h_Q)^2, a direct closeness
// signal.
func HeadFeatures(feat []float64, dim int) {
	for i := 0; i < dim; i++ {
		d := feat[i] - feat[dim+i]
		feat[2*dim+i] = d * d
	}
}

// HeadFeaturesBack writes into dCross the gradient of the cross
// embedding at the head input feat, given the input's gradient dFeat: its
// own columns' share plus the squared difference's. That one is d·diff
// twice — the product rule's two factors, added as the engine added them
// — on h_G, and its negation on h_Q.
func HeadFeaturesBack(dCross, feat, dFeat []float64, dim int) {
	for i := 0; i < dim; i++ {
		diff := feat[i] - feat[dim+i]
		g := dFeat[2*dim+i]
		dd := float64(g*diff) + float64(g*diff)
		dCross[i] = dFeat[i] + dd
		dCross[dim+i] = dFeat[dim+i] + -dd
	}
}

// sigmoid is the scalar logistic function.
func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// newRNG seeds a model-local RNG.
func newRNG(seed int64, salt int64) *rand.Rand { return rand.New(rand.NewSource(seed ^ salt)) }

// trainLoop runs a generic epoch loop over example indices, shuffling each
// epoch and applying Adam with the paper's decay schedule. step adds one
// example's gradient to the parameters and returns its loss.
func trainLoop(params *nn.Params, n int, opts TrainOptions, seed int64, step func(idx int) float64) {
	opts.defaults()
	opt := nn.NewAdam(params, opts.LR)
	rng := newRNG(seed, 0x7ea1)
	order := rng.Perm(n)
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		total := 0.0
		for _, idx := range order {
			params.ZeroGrad()
			total += step(idx)
			opt.Step()
		}
		if (epoch+1)%decayEvery == 0 {
			opt.DecayLR(lrDecay)
		}
		if n > 0 {
			opts.Logf("epoch %d: avg loss %.4f", epoch, total/float64(n))
		}
	}
	params.DropTransposes()
}

// errf builds consistent error values for this package.
func errf(format string, args ...interface{}) error {
	return fmt.Errorf("models: "+format, args...)
}
