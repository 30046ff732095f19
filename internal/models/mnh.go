package models

import (
	"math/rand"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/cg"
	"github.com/lansearch/lan/internal/nn"
)

// NeighborhoodModel is M_nh: given a data graph G and a query Q it
// predicts whether G lies in the neighborhood N_Q = {G : d(Q,G) <=
// GammaStar} (Sec. V-B1). The cross-graph embedding h_{G,Q} feeds a
// binary MLP head.
type NeighborhoodModel struct {
	Cfg    Config
	Params *nn.Params

	cross *cg.CrossModel
	head  *nn.MLP
	store *CGStore
}

// NewNeighborhoodModel builds an untrained M_nh over the store's
// vocabulary.
func NewNeighborhoodModel(cfg Config, store *CGStore) *NeighborhoodModel {
	p := nn.NewParams()
	rng := newRNG(cfg.Seed, 0x22b)
	ccfg := cg.Config{Layers: Layers, Dim: cfg.Dim, Vocab: store.Vocab}
	return &NeighborhoodModel{
		Cfg:    cfg,
		Params: p,
		cross:  cg.NewCrossModel(p, "mnh.cross", ccfg, rng),
		head:   nn.NewMLP(p, "mnh.head", []int{3 * cfg.Dim, cfg.Hidden(), 1}, rng),
		store:  store,
	}
}

// membershipStep is what M_nh's training steps run on: one recorded
// forward of the cross network, and the head's input, activations and
// gradients.
type membershipStep struct {
	m      *NeighborhoodModel
	td     trainData
	cross  cg.CrossPass
	feat   []float64 // h_G || h_Q || (h_G - h_Q)^2
	dFeat  []float64
	dCross []float64
	acts   []float64
	buf    []float64
	dOut   [1]float64
}

func (m *NeighborhoodModel) newMembershipStep(td trainData) *membershipStep {
	dim := m.Cfg.Dim
	return &membershipStep{
		m: m, td: td,
		feat: make([]float64, 3*dim), dFeat: make([]float64, 3*dim), dCross: make([]float64, 2*dim),
		acts: make([]float64, m.head.Acts()), buf: make([]float64, 2*m.head.Width()),
	}
}

// run adds one example's gradient to Params and returns its loss: the
// binary cross-entropy of the head's logit for (G, Q). The head sees h_G
// || h_Q plus the squared difference (h_G - h_Q)^2, which makes the
// closeness signal directly available.
func (s *membershipStep) run(ex MembershipExample) float64 {
	m, dim := s.m, s.m.Cfg.Dim
	y := 0.0
	if ex.InNQ {
		y = 1
	}
	copy(s.feat, s.cross.Forward(m.cross, m.store.For(s.td.db[ex.G]), s.td.queries[ex.Qi]))
	HeadFeatures(s.feat, dim)
	loss, d := nn.BCEWithLogits(m.head.Forward(s.acts, s.feat)[0], y)
	s.dOut[0] = d
	clear(s.dFeat)
	m.head.Backward(s.feat, s.acts, s.dOut[:], s.dFeat, s.buf)
	HeadFeaturesBack(s.dCross, s.feat, s.dFeat, dim)
	s.cross.Backward(s.dCross)
	return loss
}

// QueryCG builds the query's compressed GNN-graph once, for reuse across
// many ProbCG calls in one search.
func (m *NeighborhoodModel) QueryCG(q *graph.Graph) *cg.Compressed { return m.store.Query(q) }

// Bind points ws at (M_nh's cross model, qc) for the ProbCG calls that
// follow — the initial selector evaluates one query against hundreds of
// candidates, so the query side is prepared once per search instead of
// once per candidate.
func (m *NeighborhoodModel) Bind(ws *cg.Workspace, qc *cg.Compressed) { ws.Bind(m.cross, qc) }

// ProbCG returns the predicted probability that g lies in N_Q of the
// query ws is bound to: the training path's logit (the same kernel and
// head input), through the sigmoid. Allocation-free on a warm workspace.
func (m *NeighborhoodModel) ProbCG(ws *cg.Workspace, g *graph.Graph) float64 {
	dim := m.Cfg.Dim
	buf := ws.Floats(3*dim + 2*m.head.Width())
	feat, scratch := buf[:3*dim], buf[3*dim:]
	ws.Cross(feat[:2*dim], m.store.For(g))
	HeadFeatures(feat, dim)
	p := sigmoid(m.head.Infer(feat, scratch)[0])
	ws.PopFloats(len(buf))
	return p
}

// Prob returns the predicted probability that G is in N_Q (on a
// workspace of its own).
func (m *NeighborhoodModel) Prob(g, q *graph.Graph) float64 {
	ws := cg.NewWorkspace()
	m.Bind(ws, m.QueryCG(q))
	return m.ProbCG(ws, g)
}

// Predict reports whether G is predicted to be in N_Q (threshold 0.5).
func (m *NeighborhoodModel) Predict(g, q *graph.Graph) bool {
	return m.Prob(g, q) >= 0.5
}

// MembershipExample is one M_nh training pair.
type MembershipExample struct {
	Qi   int // index into the distance table's queries
	G    int // database graph id
	InNQ bool
}

// BuildMembershipTrainingSet labels every (training query, data graph)
// pair by true neighborhood membership and downsamples the (dominant)
// negative class to negRatio times the positives, per Sec. V-B1.
func BuildMembershipTrainingSet(table *DistanceTable, gammaStar float64, negRatio float64, seed int64) []MembershipExample {
	rng := rand.New(rand.NewSource(seed ^ 0x99))
	var pos, neg []MembershipExample
	for qi, row := range table.D {
		for g, d := range row {
			ex := MembershipExample{Qi: qi, G: g, InNQ: d <= gammaStar}
			if ex.InNQ {
				pos = append(pos, ex)
			} else {
				neg = append(neg, ex)
			}
		}
	}
	keep := int(float64(len(pos)) * negRatio)
	if keep > len(neg) {
		keep = len(neg)
	}
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	out := append(pos, neg[:keep]...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Train fits M_nh with binary cross-entropy.
func (m *NeighborhoodModel) Train(db graph.Database, table *DistanceTable, examples []MembershipExample, opts TrainOptions) error {
	if len(examples) == 0 {
		return errf("empty M_nh training set")
	}
	s := m.newMembershipStep(m.store.trainData(db, table))
	trainLoop(m.Params, len(examples), opts, m.Cfg.Seed, func(idx int) float64 {
		return s.run(examples[idx])
	})
	return nil
}

// Precision evaluates p = |N̂_Q ∩ N_Q| / |N̂_Q| over held-out queries —
// the quantity of Lemma 2 and Fig. 8. It returns precision and the mean
// predicted-neighborhood size.
func (m *NeighborhoodModel) Precision(db graph.Database, table *DistanceTable, gammaStar float64) (precision, avgPredicted float64) {
	var tp, fp, predicted int
	ws := cg.NewWorkspace()
	for qi, q := range table.Queries {
		row := table.D[qi]
		m.Bind(ws, m.QueryCG(q))
		for g := range db {
			if m.ProbCG(ws, db[g]) >= 0.5 {
				predicted++
				if row[g] <= gammaStar {
					tp++
				} else {
					fp++
				}
			}
		}
	}
	if tp+fp == 0 {
		return 0, 0
	}
	return float64(tp) / float64(tp+fp), float64(predicted) / float64(len(table.Queries))
}
