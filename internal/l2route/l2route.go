// Package l2route implements the paper's L2route comparator (Baranchuk et
// al., "Learning to route in similarity graphs"), adapted to graph
// databases exactly as Sec. VII prescribes: graphs are first converted to
// embedding vectors, routing happens in L2 space over a vector proximity
// graph, and the resulting candidates are verified with true GEDs. The
// embedding is learned — a siamese GIN trained so that squared L2 distance
// regresses onto GED — which is the strongest reasonable stand-in for the
// original's learned router. The vector proximity graph is the HNSW
// pg.Build makes for every index, and the vector stage is route.Route
// without a ranker — the same builder and query loop as LAN's baseline,
// under squared L2 instead of GED. Its weakness, which the paper's Fig. 5
// reports, is structural: to reach high recall the vector stage must
// surface enough true neighbors, which forces many GED verifications.
package l2route

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/cg"
	"github.com/lansearch/lan/internal/nn"
	"github.com/lansearch/lan/internal/obs"
	"github.com/lansearch/lan/internal/order"
	"github.com/lansearch/lan/internal/pg"
	"github.com/lansearch/lan/internal/route"
)

// Encoder turns graphs into embedding vectors.
type Encoder struct {
	Params *nn.Params
	gin    *cg.GINModel
	layers int
	vocab  *cg.Vocab
}

// NewEncoder builds a GIN encoder over db's vocabulary.
func NewEncoder(db graph.Database, layers, dim int, seed int64) *Encoder {
	vocab := cg.NewVocab(db)
	p := nn.NewParams()
	rng := rand.New(rand.NewSource(seed))
	return &Encoder{
		Params: p,
		gin:    cg.NewGINModel(p, "l2.gin", cg.Config{Layers: layers, Dim: dim, Vocab: vocab}, rng),
		layers: layers,
		vocab:  vocab,
	}
}

// Embed returns the embedding vector of g.
func (e *Encoder) Embed(g *graph.Graph) []float64 {
	return e.gin.Embed(cg.Build(g, e.layers, e.vocab))
}

// Pair is one siamese training example: two graphs and their GED.
type Pair struct {
	A, B *graph.Graph
	D    float64
}

// Train fits the encoder so that ||e(A)-e(B)||^2 approximates D, by MSE.
func (e *Encoder) Train(pairs []Pair, epochs int, lr float64) error {
	if len(pairs) == 0 {
		return fmt.Errorf("l2route: no training pairs")
	}
	opt := nn.NewAdam(e.Params, lr)
	rng := rand.New(rand.NewSource(31))
	order := rng.Perm(len(pairs))
	s := e.newPairStep()
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			e.Params.ZeroGrad()
			s.run(pairs[idx])
			opt.Step()
		}
	}
	e.Params.DropTransposes()
	return nil
}

// pairStep is what the encoder's training steps run on: a recorded
// forward of the GIN per side of the pair, their gradients, and the
// compressed GNN-graph of every database graph a pair has brought,
// built once per Train (SamplePairs draws database members).
type pairStep struct {
	e      *Encoder
	a, b   cg.GINPass
	dA, dB []float64
	cgs    map[int]*cg.Compressed
}

func (e *Encoder) newPairStep() *pairStep {
	return &pairStep{
		e: e, dA: make([]float64, e.gin.Cfg.Dim), dB: make([]float64, e.gin.Cfg.Dim),
		cgs: make(map[int]*cg.Compressed),
	}
}

// compressed returns g's compressed GNN-graph, cached by ID for database
// members; cg.Build is deterministic, so a cached one is the one a fresh
// build would give.
func (s *pairStep) compressed(g *graph.Graph) *cg.Compressed {
	if c, ok := s.cgs[g.ID]; ok {
		return c
	}
	c := cg.Build(g, s.e.layers, s.e.vocab)
	if g.ID >= 0 {
		s.cgs[g.ID] = c
	}
	return c
}

// run adds the gradient of one pair's loss, the squared error of
// ||e(A)-e(B)||^2 against D, to the encoder's Params and returns the loss.
// The gradient reaches the embeddings through the squared L2 — 2·s·(e(A)
// − e(B)) on A and its negation on B, s the squared error's derivative —
// and B's backward runs before A's, the order the weights were pinned
// under.
func (s *pairStep) run(p Pair) float64 {
	e := s.e
	ea := s.a.Forward(e.gin, s.compressed(p.A))
	eb := s.b.Forward(e.gin, s.compressed(p.B))
	loss, d := nn.MSE(sqL2(ea, eb), p.D)
	for i := range s.dA {
		s.dA[i] = 2 * d * (ea[i] - eb[i])
		s.dB[i] = -s.dA[i]
	}
	s.b.Backward(s.dB)
	s.a.Backward(s.dA)
	return loss
}

// Index is the L2route search structure: database embeddings plus an
// HNSW proximity graph built by pg.Build over squared L2 between them.
type Index struct {
	DB      graph.Database
	Encoder *Encoder
	Vectors [][]float64
	HNSW    *pg.HNSW
}

// BuildIndex embeds every database graph and builds the shared proximity
// graph over the embeddings with degree parameter m. The build metric
// reads the stored vectors by graph ID; an L2 call is a short loop, so
// the build runs on one worker.
func BuildIndex(db graph.Database, enc *Encoder, m int) (*Index, error) {
	idx := &Index{DB: db, Encoder: enc, Vectors: make([][]float64, len(db))}
	for i, g := range db {
		idx.Vectors[i] = enc.Embed(g)
	}
	metric := ged.MetricFunc(func(g, h *graph.Graph) float64 {
		return sqL2(idx.Vectors[g.ID], idx.Vectors[h.ID])
	})
	h, err := pg.Build(db, pg.BuildConfig{M: m, Metric: metric, Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("l2route: %w", err)
	}
	idx.HNSW = h
	return idx, nil
}

// Search answers a k-ANN query: route.Route over the proximity graph in
// embedding space (free — no GED), entered through the HNSW descent, then
// verify the best min(verify, beam) vector candidates with true GEDs
// charged to cache, returning the best k by GED and the number of vector
// nodes the routing explored (its NDC is cache's). Routing checks the
// context before every vector distance and verification — where the wall
// time actually goes — before every GED call and after the last, so an
// expired deadline stops the query within one GED call.
func (x *Index) Search(ctx context.Context, q *graph.Graph, cache *pg.DistCache, k, beam, verify int) ([]pg.Result, int, error) {
	if verify < k {
		verify = k
	}
	trace := obs.From(ctx)
	beamSpan := trace.StartSpan("l2_beam")
	embedStart := time.Now()
	qv := x.Encoder.Embed(q)
	trace.RecordSpan("embed", embedStart, time.Since(embedStart), 0, 1)

	vec := pg.NewDistCache(ged.MetricFunc(func(g, _ *graph.Graph) float64 {
		return sqL2(x.Vectors[g.ID], qv)
	}), x.DB, q)
	entry := x.HNSW.EntryPoint(ctx, vec)
	cands, rs, err := route.Route(ctx, x.HNSW.PG, vec, nil, entry, route.Config{K: min(verify, beam), Beam: beam})
	if err != nil {
		return nil, rs.Explored, err
	}
	// The vector stage pays no GEDs, so its span NDC is zero by
	// construction.
	trace.EndSpan(beamSpan, 0)
	verifySpan := trace.StartSpan("verify")

	ndcBefore := cache.NDC()
	verified := make([]pg.Result, 0, len(cands))
	for _, c := range cands {
		if ctx.Err() != nil {
			break
		}
		verified = append(verified, pg.Result{ID: c.ID, Dist: cache.Dist(c.ID)})
	}
	// Checked after the loop too, so a cancel inside the last GED call
	// still ends the query with ctx.Err().
	if err := ctx.Err(); err != nil {
		return nil, rs.Explored, err
	}
	sort.Slice(verified, func(i, j int) bool {
		return order.ByDistThenID(verified[i].Dist, verified[i].ID, verified[j].Dist, verified[j].ID)
	})
	if len(verified) > k {
		verified = verified[:k]
	}
	verifyNDC := cache.NDC() - ndcBefore
	trace.EndSpan(verifySpan, verifyNDC)
	if verifyNDC > 0 {
		obs.Query().NDCVerify.Add(uint64(verifyNDC))
	}
	return verified, rs.Explored, nil
}

func sqL2(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// SamplePairs draws n training pairs from the database with their metric
// distances — the offline supervision for Encoder.Train.
func SamplePairs(db graph.Database, metric ged.Metric, n int, seed int64) []Pair {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Pair, n)
	for i := range out {
		a := db[rng.Intn(len(db))]
		b := db[rng.Intn(len(db))]
		out[i] = Pair{A: a, B: b, D: metric.Distance(a, b)}
	}
	return out
}
