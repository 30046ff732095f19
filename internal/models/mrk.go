package models

import (
	"slices"
	"sort"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/cg"
	"github.com/lansearch/lan/internal/nn"
	"github.com/lansearch/lan/internal/order"
	"github.com/lansearch/lan/internal/pg"
	"github.com/lansearch/lan/internal/route"
)

// NeighborRanker is M_rk: for the current node G and query Q it scores
// every PG-neighbor G' by combining 100/y binary partial rankers (head i
// predicts "G' is within the top (i+1)*y% of G's neighbors"), then orders
// neighbors by the summed head probabilities. Inside the router it is used
// only when the current node lies in the query's neighborhood
// (d(G,Q) <= GammaStar); outside, all neighbors form one batch.
type NeighborRanker struct {
	Cfg    Config
	Params *nn.Params

	cross *cg.CrossModel // encodes (G', Q)
	node  *cg.GINModel   // encodes the current node G
	heads []*nn.MLP      // one binary head per partial ranker
	store *CGStore

	// nodeEmbs[i] is the precomputed h_G of database graph i (nil until
	// PrecomputeNodeEmbeddings or SetNodeEmbeddings runs). The router
	// needs h_G for every ranking call; computing all of them once at
	// index-build time moves that cost offline.
	nodeEmbs [][]float64
}

// NewNeighborRanker builds an untrained M_rk over the store's vocabulary.
func NewNeighborRanker(cfg Config, store *CGStore) *NeighborRanker {
	p := nn.NewParams()
	rng := newRNG(cfg.Seed, 0x11a)
	ccfg := cg.Config{Layers: Layers, Dim: cfg.Dim, Vocab: store.Vocab}
	r := &NeighborRanker{
		Cfg:    cfg,
		Params: p,
		cross:  cg.NewCrossModel(p, "mrk.cross", ccfg, rng),
		node:   cg.NewGINModel(p, "mrk.node", ccfg, rng),
		store:  store,
	}
	in := 3 * cfg.Dim // h_{G',Q} (2*Dim) || h_G (Dim)
	for i := 0; i < Heads; i++ {
		r.heads = append(r.heads, nn.NewMLP(p, headName(i), []int{in, cfg.Hidden(), 1}, rng))
	}
	return r
}

func headName(i int) string { return "mrk.head" + string(rune('0'+i)) }

// Score returns the summed head probability for one neighbor — a monotone
// proxy for its predicted rank (higher means predicted closer to Q).
// neighbor and node are database members.
func (r *NeighborRanker) Score(q, neighbor, node *graph.Graph) float64 {
	sc := r.bind(cg.NewWorkspace(), r.store.For(q), nil)
	return sc.score(neighbor.ID, neighbor, r.nodeEmbedding(node))
}

// PrecomputeNodeEmbeddings embeds every database graph with the node
// encoder once — EmbedGraph per graph, fanned over a pg.WorkerPool of
// workers (<= 0 means runtime.NumCPU) — so the router never pays h_G at
// query time. Call after training; SetNodeEmbeddings restores the same
// state from a snapshot.
func (r *NeighborRanker) PrecomputeNodeEmbeddings(db graph.Database, workers int) {
	embs := make([][]float64, len(db))
	pool := pg.NewWorkerPool(workers)
	defer pool.Close()
	pool.Run(len(db), func(i int) { embs[i] = r.EmbedGraph(db[i]) })
	r.nodeEmbs = embs
}

// NodeEmbeddings returns the precomputed database embeddings (nil if
// PrecomputeNodeEmbeddings has not run); the slice is shared, not copied.
func (r *NeighborRanker) NodeEmbeddings() [][]float64 { return r.nodeEmbs }

// SetNodeEmbeddings installs embeddings loaded from a snapshot. It
// validates the shape against the database size and the encoder's output
// dimension.
func (r *NeighborRanker) SetNodeEmbeddings(embs [][]float64, dbSize int) error {
	if len(embs) != dbSize {
		return errf("%d node embeddings for %d database graphs", len(embs), dbSize)
	}
	for i, e := range embs {
		if len(e) != r.Cfg.Dim {
			return errf("node embedding %d has dim %d, want %d", i, len(e), r.Cfg.Dim)
		}
	}
	r.nodeEmbs = embs
	return nil
}

// WithNodeEmbeddings returns a shallow copy of the ranker whose
// precomputed-embedding table is pinned to embs: the view a mutable
// index publishes with each snapshot, so concurrent appends to the
// writer's table never reach readers of an older epoch.
func (r *NeighborRanker) WithNodeEmbeddings(embs [][]float64) *NeighborRanker {
	view := *r
	view.nodeEmbs = embs
	return &view
}

// EmbedGraph encodes one graph with the node encoder: what
// PrecomputeNodeEmbeddings runs for every database graph and the write
// path for every inserted one.
func (r *NeighborRanker) EmbedGraph(g *graph.Graph) []float64 {
	return r.node.Embed(r.store.For(g))
}

// AppendNodeEmbedding extends the precomputed table by one inserted
// graph (ids are append-only, so position == id).
func (r *NeighborRanker) AppendNodeEmbedding(emb []float64) {
	r.nodeEmbs = append(r.nodeEmbs, emb)
}

// nodeEmbedding returns h_G for database member g: its row of the
// precomputed table, else a fresh encoder pass over g.
func (r *NeighborRanker) nodeEmbedding(g *graph.Graph) []float64 {
	if g.ID < len(r.nodeEmbs) && r.nodeEmbs[g.ID] != nil {
		return r.nodeEmbs[g.ID]
	}
	return r.node.Embed(r.store.For(g))
}

// RankerStats counts what M_rk paid for one search's neighbour scores:
// every score either runs the cross-graph network and the cross columns of
// the heads' first layer, or finds both in the per-search memo.
type RankerStats struct {
	// Inferences is the number of cross-graph inferences run (one per
	// distinct neighbour scored).
	Inferences int
	// MemoHits is the number of scores of a neighbour met before, from
	// another current node, that skipped the inference and the two thirds
	// of every head's first layer that read its result.
	MemoHits int
}

// scorer is M_rk bound to one query on one workspace — the one path by
// which a neighbour score is computed. A score is
//
//	Σ_heads sigmoid(out_h(ReLU(hidden_h(h_{G′,Q} || h_G))))
//
// and of its inputs only h_G depends on the current node G, while the
// cross embedding h_{G′,Q} is most of its cost and its 2·Dim columns come
// first in every head's input. The scorer therefore runs the cross network
// once per distinct neighbour G′ and keeps in the workspace's memo not the
// embedding but what each head's first layer makes of it — the sum over
// the cross columns, Heads × 2·Dim floats (nn.MLP.InferPrefix). A score,
// the first for G′ or the n-th from another node, resumes every head from
// its prefix with the Dim columns of h_G: the float operations of the
// whole forward in the same order, so memoised scores equal unmemoised
// ones bit for bit (TestRankerMemoBitIdentical).
type scorer struct {
	r     *NeighborRanker
	ws    *cg.Workspace
	stats *RankerStats // nil when nobody counts
	// hidden and width are the heads' first-layer and widest outputs (the
	// heads share one shape).
	hidden, width int
}

// bind points ws at (M_rk's cross model, qc) and starts an empty memo.
func (r *NeighborRanker) bind(ws *cg.Workspace, qc *cg.Compressed, stats *RankerStats) scorer {
	ws.Bind(r.cross, qc)
	hidden := r.heads[0].Layers[0].W.Data.Cols
	ws.StartMemo(len(r.heads) * hidden)
	return scorer{r: r, ws: ws, stats: stats, hidden: hidden, width: r.heads[0].Width()}
}

// score returns the summed head probability of neighbour id (whose graph
// is g) seen from the node whose embedding is nodeEmb.
func (s scorer) score(id int, g *graph.Graph, nodeEmb []float64) float64 {
	r, ws := s.r, s.ws
	prefix, hit := ws.MemoRow(id)
	if !hit {
		cross := ws.Floats(2 * r.Cfg.Dim)
		ws.Cross(cross, r.store.For(g))
		s.headPrefixes(prefix, cross)
		ws.PopFloats(len(cross))
	}
	if s.stats != nil {
		if hit {
			s.stats.MemoHits++
		} else {
			s.stats.Inferences++
		}
	}
	return s.headSum(prefix, nodeEmb)
}

// headPrefixes fills a memo row from a neighbour's cross embedding: head
// after head, the first layer's sum over the cross columns.
func (s scorer) headPrefixes(prefix, cross []float64) {
	for i, h := range s.r.heads {
		h.InferPrefix(prefix[i*s.hidden:][:s.hidden], cross)
	}
}

// headSum resumes every head from its prefix with nodeEmb and sums the
// probabilities.
func (s scorer) headSum(prefix, nodeEmb []float64) float64 {
	buf := s.ws.Floats(2 * s.width)
	p := 0.0
	for i, h := range s.r.heads {
		p += sigmoid(h.InferFrom(prefix[i*s.hidden:][:s.hidden], nodeEmb, buf)[0])
	}
	s.ws.PopFloats(len(buf))
	return p
}

// Ranker adapts M_rk to the router: inside N_Q (dCurrent <= GammaStar)
// neighbors are ordered by predicted score and cut into y% batches;
// outside, a single batch disables pruning, per the paper's Sec. IV-C.
// ws is the search's workspace: scores, the memo and the returned batches
// (which the router keeps until the search ends) all live there, so a
// ranking call allocates nothing once ws is warm; the Ranker must not
// outlive the search or be shared with another. qc is the
// query's compressed GNN-graph, built once per search (nil falls back to
// building it here). stats, when non-nil, counts inferences and memo hits.
// Node and neighbour ids index db.
func (r *NeighborRanker) Ranker(ws *cg.Workspace, db graph.Database, q *graph.Graph, qc *cg.Compressed, stats *RankerStats) route.Ranker {
	if qc == nil {
		qc = r.store.Query(q)
	}
	return &searchRanker{sc: r.bind(ws, qc, stats), db: db}
}

// searchRanker is one search's route.Ranker over M_rk.
type searchRanker struct {
	sc scorer
	db graph.Database
}

// Batches implements route.Ranker.
func (k *searchRanker) Batches(node int, neighbors []int, dCurrent float64) [][]int {
	if len(neighbors) == 0 {
		return nil
	}
	r, ws := k.sc.r, k.sc.ws
	ranked := ws.Ints(len(neighbors))
	copy(ranked, neighbors)
	if dCurrent > r.Cfg.GammaStar || len(neighbors) == 1 {
		return route.AppendBatches(ws.Batches(1), ranked, 100)
	}
	nodeEmb := r.nodeEmbedding(k.db[node])
	scores := ws.Floats(len(neighbors))
	for i, nb := range neighbors {
		scores[i] = k.sc.score(nb, k.db[nb], nodeEmb)
	}
	sortByScoreThenID(scores, ranked)
	ws.PopFloats(len(scores))
	return route.AppendBatches(ws.Batches(Heads), ranked, BatchPercent)
}

// sortByScoreThenID puts ids, and scores with them, in the order the
// router opens them in: descending score, ties by ascending id. Insertion
// sort, stable like the sort.SliceStable it replaces (and step for step
// the same below that one's 20-element block size); scores tie-break by
// id, so the order is total either way.
func sortByScoreThenID(scores []float64, ids []int) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && order.ByScoreThenID(scores[j], ids[j], scores[j-1], ids[j-1]); j-- {
			scores[j], scores[j-1] = scores[j-1], scores[j]
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// RankExample is one M_rk training example: rank the neighbors of PG node
// Node for query Qi.
type RankExample struct {
	Qi   int // index into the distance table's queries
	Node int
	// Neighbors and Ranks: Ranks[j] is the 0-based true rank of
	// Neighbors[j] among the node's neighbors by distance to the query.
	Neighbors []int
	Ranks     []int
}

// BuildRankTrainingSet assembles the paper's neighborhood-restricted
// training set: for each training query, every PG node inside N_Q
// contributes its ranked neighbor list.
func BuildRankTrainingSet(p *pg.PG, table *DistanceTable, gammaStar float64) []RankExample {
	var out []RankExample
	for qi := range table.Queries {
		row := table.D[qi]
		for node := 0; node < p.Len(); node++ {
			if row[node] > gammaStar {
				continue // train only inside the neighborhood (Sec. IV-C)
			}
			ns := p.Neighbors(node)
			if len(ns) < 2 {
				continue
			}
			idx := make([]int, len(ns))
			for i := range idx {
				idx[i] = i
			}
			sort.SliceStable(idx, func(a, b int) bool {
				return order.ByDistThenID(row[ns[idx[a]]], ns[idx[a]], row[ns[idx[b]]], ns[idx[b]])
			})
			ranks := make([]int, len(ns))
			for rank, i := range idx {
				ranks[i] = rank
			}
			out = append(out, RankExample{
				Qi: qi, Node: node,
				Neighbors: append([]int(nil), ns...),
				Ranks:     ranks,
			})
		}
	}
	return out
}

// headTarget is head i's label for a neighbour of 0-based true rank
// among n: 1 inside the top (i+1)*y%, which always holds the closest one.
func (r *NeighborRanker) headTarget(i, rank, n int) float64 {
	cut := (i + 1) * BatchPercent * n / 100
	if cut < 1 {
		cut = 1
	}
	if rank < cut {
		return 1
	}
	return 0
}

// rankStep is what M_rk's training steps run on: one recorded forward of
// the node encoder and one of the cross network (reused neighbour after
// neighbour), and the heads' input, activations and gradients.
type rankStep struct {
	r      *NeighborRanker
	td     trainData
	node   cg.GINPass
	cross  cg.CrossPass
	in     []float64 // h_{G′,Q} || h_G
	dIn    []float64
	dNode  []float64 // ∂loss/∂h_G, summed over neighbours
	acts   []float64
	buf    []float64
	dOut   [1]float64
	losses []float64
}

func (r *NeighborRanker) newRankStep(td trainData) *rankStep {
	dim, h := r.Cfg.Dim, r.heads[0]
	return &rankStep{
		r: r, td: td,
		in: make([]float64, 3*dim), dIn: make([]float64, 3*dim), dNode: make([]float64, dim),
		acts: make([]float64, h.Acts()), buf: make([]float64, 2*h.Width()),
	}
}

// run adds one rank example's gradient to Params and returns its mean
// loss per (neighbour, head). The loss is the sum over (neighbour, head)
// of the head's binary cross-entropy against headTarget. The current node
// is encoded once, each neighbour's cross embedding once, and every head
// reads that one h_{G′,Q} || h_G.
//
// The engine the weights were pinned under summed the losses neighbour
// by neighbour, head by head, and back-propagated the sum once, so the
// rules run in the reverse: the last neighbour first and, per neighbour,
// the last head first, the heads' input gradients summed before the
// cross network's backward; h_G's gradient collects every neighbour's
// share before the node encoder's backward runs last.
func (s *rankStep) run(ex RankExample) float64 {
	r, td := s.r, s.td
	dim := r.Cfg.Dim
	n, heads := len(ex.Neighbors), len(r.heads)
	s.losses = slices.Grow(s.losses[:0], n*heads)[:n*heads]
	hg := s.node.Forward(r.node, r.store.For(td.db[ex.Node]))
	clear(s.dNode)
	for j := n - 1; j >= 0; j-- {
		nb := ex.Neighbors[j]
		copy(s.in, s.cross.Forward(r.cross, r.store.For(td.db[nb]), td.queries[ex.Qi]))
		copy(s.in[2*dim:], hg)
		clear(s.dIn)
		for i := heads - 1; i >= 0; i-- {
			h := r.heads[i]
			loss, d := nn.BCEWithLogits(h.Forward(s.acts, s.in)[0], r.headTarget(i, ex.Ranks[j], n))
			s.losses[j*heads+i] = loss
			s.dOut[0] = d
			h.Backward(s.in, s.acts, s.dOut[:], s.dIn, s.buf)
		}
		for k, d := range s.dIn[2*dim:] {
			s.dNode[k] += d
		}
		s.cross.Backward(s.dIn[:2*dim])
	}
	s.node.Backward(s.dNode)
	total := 0.0
	for _, l := range s.losses {
		total += l
	}
	return total / float64(n*heads)
}

// Train fits the shared encoders and the ranker heads on examples, one
// Adam step per example (see rankStep.run for the loss).
func (r *NeighborRanker) Train(db graph.Database, table *DistanceTable, examples []RankExample, opts TrainOptions) error {
	if len(examples) == 0 {
		return errf("empty M_rk training set")
	}
	s := r.newRankStep(r.store.trainData(db, table))
	trainLoop(r.Params, len(examples), opts, r.Cfg.Seed, func(idx int) float64 {
		return s.run(examples[idx])
	})
	return nil
}

// RankAccuracy measures, over examples, the fraction of top-y% neighbors
// (by truth) that the model also places in its top y% — the metric that
// determines pruning safety. The model's order is the one the router cuts
// into batches: the same scores under the same comparator, ties included.
func (r *NeighborRanker) RankAccuracy(db graph.Database, table *DistanceTable, examples []RankExample) float64 {
	if len(examples) == 0 {
		return 0
	}
	hit, total := 0, 0
	ws := cg.NewWorkspace()
	for _, ex := range examples {
		q := table.Queries[ex.Qi]
		n := len(ex.Neighbors)
		cut := BatchPercent * n / 100
		if cut < 1 {
			cut = 1
		}
		sc := r.bind(ws, r.store.For(q), nil)
		nodeEmb := r.nodeEmbedding(db[ex.Node])
		ranked := append([]int(nil), ex.Neighbors...)
		scores := make([]float64, n)
		for j, nb := range ex.Neighbors {
			scores[j] = sc.score(nb, db[nb], nodeEmb)
		}
		sortByScoreThenID(scores, ranked)
		pred := make(map[int]bool, cut)
		for _, nb := range ranked[:cut] {
			pred[nb] = true
		}
		for j, nb := range ex.Neighbors {
			if ex.Ranks[j] < cut {
				total++
				if pred[nb] {
					hit++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}
