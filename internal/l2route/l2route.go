// Package l2route implements the paper's L2route comparator (Baranchuk et
// al., "Learning to route in similarity graphs"), adapted to graph
// databases exactly as Sec. VII prescribes: graphs are first converted to
// embedding vectors, routing happens in L2 space over a vector proximity
// graph, and the resulting candidates are verified with true GEDs. The
// embedding is learned — a siamese GIN trained so that squared L2 distance
// regresses onto GED — which is the strongest reasonable stand-in for the
// original's learned router. Its weakness, which the paper's Fig. 5
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
	"github.com/lansearch/lan/internal/autograd"
	"github.com/lansearch/lan/internal/cg"
	"github.com/lansearch/lan/internal/nn"
	"github.com/lansearch/lan/internal/obs"
	"github.com/lansearch/lan/internal/order"
	"github.com/lansearch/lan/internal/pg"
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

// forward records the embedding of g on t.
func (e *Encoder) forward(t *autograd.Tape, g *graph.Graph) *autograd.Value {
	return e.gin.Forward(t, cg.Build(g, e.layers, e.vocab))
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
	t := autograd.NewTape()
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			p := pairs[idx]
			e.Params.ZeroGrad()
			t.Reset()
			ea := e.forward(t, p.A)
			eb := e.forward(t, p.B)
			diff := t.Add(ea, t.Scale(eb, -1))
			sq := t.SumSquares(diff)
			loss := t.MSE(sq, []float64{p.D})
			t.Backward(loss)
			opt.Step()
		}
	}
	return nil
}

// Index is the L2route search structure: database embeddings plus a
// brute-force M-nearest-neighbor graph in embedding space.
type Index struct {
	DB      graph.Database
	Encoder *Encoder
	Vectors [][]float64
	Adj     [][]int
}

// BuildIndex embeds every database graph and links each to its M nearest
// vectors (symmetrized).
func BuildIndex(db graph.Database, enc *Encoder, m int) *Index {
	idx := &Index{DB: db, Encoder: enc, Vectors: make([][]float64, len(db)), Adj: make([][]int, len(db))}
	for i, g := range db {
		idx.Vectors[i] = enc.Embed(g)
	}
	type nd struct {
		id int
		d  float64
	}
	edges := make(map[[2]int]bool)
	for i := range db {
		nds := make([]nd, 0, len(db)-1)
		for j := range db {
			if i != j {
				nds = append(nds, nd{j, sqL2(idx.Vectors[i], idx.Vectors[j])})
			}
		}
		sort.Slice(nds, func(a, b int) bool {
			return order.ByDistThenID(nds[a].d, nds[a].id, nds[b].d, nds[b].id)
		})
		if len(nds) > m {
			nds = nds[:m]
		}
		for _, n := range nds {
			a, b := i, n.id
			if a > b {
				a, b = b, a
			}
			edges[[2]int{a, b}] = true
		}
	}
	for e := range edges {
		idx.Adj[e[0]] = append(idx.Adj[e[0]], e[1])
		idx.Adj[e[1]] = append(idx.Adj[e[1]], e[0])
	}
	idx.connectComponents()
	for i := range idx.Adj {
		sort.Ints(idx.Adj[i])
	}
	return idx
}

// connectComponents repairs the well-known disconnection of mutual-kNN
// graphs by repeatedly adding the closest cross-component vector pair
// until the graph is a single component (so beam search can reach every
// candidate from any entry).
func (x *Index) connectComponents() {
	n := len(x.Adj)
	for {
		comp := make([]int, n)
		for i := range comp {
			comp[i] = -1
		}
		comps := 0
		for s := 0; s < n; s++ {
			if comp[s] != -1 {
				continue
			}
			stack := []int{s}
			comp[s] = comps
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, v := range x.Adj[u] {
					if comp[v] == -1 {
						comp[v] = comps
						stack = append(stack, v)
					}
				}
			}
			comps++
		}
		if comps <= 1 {
			return
		}
		// Closest pair between component 0 and any other component.
		bi, bj, bd := -1, -1, 0.0
		for i := 0; i < n; i++ {
			if comp[i] != 0 {
				continue
			}
			for j := 0; j < n; j++ {
				if comp[j] == 0 {
					continue
				}
				if d := sqL2(x.Vectors[i], x.Vectors[j]); bi == -1 || d < bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		x.Adj[bi] = append(x.Adj[bi], bj)
		x.Adj[bj] = append(x.Adj[bj], bi)
	}
}

// Search answers a k-ANN query: beam search in embedding space (free — no
// GED), then verify the top `verify` vector candidates with true GEDs
// charged to cache, returning the best k by GED. The vector-space beam
// search checks the context per explored node and the GED verification
// stage — where the wall time actually goes — checks it before every
// distance computation, so an expired deadline stops the query within one
// GED call.
func (x *Index) Search(ctx context.Context, q *graph.Graph, cache *pg.DistCache, k, beam, verify int) ([]pg.Result, pg.Stats, error) {
	if verify < k {
		verify = k
	}
	trace := obs.From(ctx)
	beamSpan := trace.StartSpan("l2_beam")
	embedStart := time.Now()
	qv := x.Encoder.Embed(q)
	trace.RecordSpan("embed", embedStart, time.Since(embedStart), 0, 1)
	entry := 0
	trace.SetEntry(entry)

	// Beam search over the vector graph under L2.
	dist := func(id int) float64 { return sqL2(qv, x.Vectors[id]) }
	visited := map[int]bool{entry: true}
	frontier := []vecCand{{entry, dist(entry)}}
	results := []vecCand{{entry, dist(entry)}}
	for len(frontier) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, pg.Stats{NDC: cache.NDC(), Explored: len(visited)}, err
		}
		cur := frontier[0]
		frontier = frontier[1:]
		if len(results) >= beam && cur.d > results[len(results)-1].d {
			break
		}
		for _, nb := range x.Adj[cur.id] {
			if visited[nb] {
				continue
			}
			visited[nb] = true
			d := dist(nb)
			if len(results) < beam || d < results[len(results)-1].d {
				frontier = insertCand(frontier, vecCand{nb, d})
				results = insertCand(results, vecCand{nb, d})
				if len(results) > beam {
					results = results[:beam]
				}
			}
		}
	}

	// The vector stage pays no GEDs, so its span NDC is zero by
	// construction.
	trace.EndSpan(beamSpan, 0)
	verifySpan := trace.StartSpan("verify")

	// GED verification of the best vector candidates.
	ndcBefore := cache.NDC()
	if verify > len(results) {
		verify = len(results)
	}
	verified := make([]pg.Result, 0, verify)
	for _, c := range results[:verify] {
		if err := ctx.Err(); err != nil {
			return nil, pg.Stats{NDC: cache.NDC(), Explored: len(visited)}, err
		}
		verified = append(verified, pg.Result{ID: c.id, Dist: cache.Dist(c.id)})
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
	return verified, pg.Stats{NDC: cache.NDC(), Explored: len(visited)}, nil
}

// vecCand is a vector-space candidate during beam search.
type vecCand struct {
	id int
	d  float64
}

func insertCand(s []vecCand, c vecCand) []vecCand {
	i := sort.Search(len(s), func(i int) bool {
		// The first element strictly after c in the canonical order.
		return order.ByDistThenID(c.d, c.id, s[i].d, s[i].id)
	})
	s = append(s, c)
	copy(s[i+1:], s[i:])
	s[i] = c
	return s
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
