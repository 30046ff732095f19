package models

import (
	"math/rand"
	"testing"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/cg"
	"github.com/lansearch/lan/internal/cluster"
	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/internal/l2route"
	"github.com/lansearch/lan/internal/mat"
	"github.com/lansearch/lan/internal/nn"
)

// The training forward passes as they stood on the allocating engine
// (reference_autograd_test.go): dense one-hot level-0 inputs, a fresh
// matrix per op, the training query's CG taken as given. A reference
// model shares its nn.Params with the optimizer — a leaf wraps the
// parameter's matrix, and its gradient is handed to the parameter after
// every backward pass — so the oracle replaces the engine and nothing else:
// trainLoop, the shuffles and Adam are the ones the models train under.

// refLeaves maps the parameters of one model to their oracle leaves.
type refLeaves map[*nn.Param]*refValue

func (l refLeaves) of(p *nn.Param) *refValue {
	v, ok := l[p]
	if !ok {
		v = refParam(p.Data)
		l[p] = v
	}
	return v
}

// backward differentiates loss and publishes every leaf's gradient where
// Adam reads it. A leaf's matrix, once made, keeps accumulating, as a
// Param's does; Params.ZeroGrad clears it through the shared pointer.
func (l refLeaves) backward(loss *refValue) {
	refBackward(loss)
	for p, v := range l {
		p.Grad = v.Grad
	}
}

func refInputFeatures(c *cg.Compressed, vocabSize int) *refValue {
	return refConst(refInferInput(c, vocabSize))
}

func refLogSizeRow(logSize []float64) *refValue {
	return refConst(&mat.Matrix{Rows: 1, Cols: len(logSize), Data: logSize})
}

func refCrossForward(m *cg.CrossModel, l refLeaves, cgG, cgQ *cg.Compressed) *refValue {
	hg := refInputFeatures(cgG, m.Cfg.Vocab.Size())
	hq := refInputFeatures(cgQ, m.Cfg.Vocab.Size())
	for lv := 1; lv <= m.Cfg.Layers; lv++ {
		w, a2 := l.of(m.W[lv-1]), l.of(m.A2[lv-1])
		logG, logQ := cgG.Levels[lv-1].LogSize, cgQ.Levels[lv-1].LogSize

		kg := refTranspose(refMatMul(hg, a2))
		kq := refTranspose(refMatMul(hq, a2))

		muG := refMatMul(refSoftmaxRows(refAdd(kq, refLogSizeRow(logQ))), hq)
		muQ := refMatMul(refSoftmaxRows(refAdd(kg, refLogSizeRow(logG))), hg)

		tG := refLinearCombRows(hg, cgG.Levels[lv].In)
		tQ := refLinearCombRows(hq, cgQ.Levels[lv].In)
		hg = refReLU(refMatMul(refAddRowBroadcast(tG, muG), w))
		hq = refReLU(refMatMul(refAddRowBroadcast(tQ, muQ), w))
	}
	outG := refWeightedMeanRows(hg, cgG.Levels[m.Cfg.Layers].Size)
	outQ := refWeightedMeanRows(hq, cgQ.Levels[m.Cfg.Layers].Size)
	return refConcatCols(outG, outQ)
}

func refGINForward(m *cg.GINModel, l refLeaves, c *cg.Compressed) *refValue {
	h := refInputFeatures(c, m.Cfg.Vocab.Size())
	for lv := 1; lv <= m.Cfg.Layers; lv++ {
		t := refLinearCombRows(h, c.Levels[lv].In)
		h = refReLU(refMatMul(t, l.of(m.W[lv-1])))
	}
	return refWeightedMeanRows(h, c.Levels[m.Cfg.Layers].Size)
}

func refMLPApply(m *nn.MLP, l refLeaves, x *refValue) *refValue {
	for i, layer := range m.Layers {
		x = refAddRowBroadcast(refMatMul(x, l.of(layer.W)), l.of(layer.B))
		if i < len(m.Layers)-1 {
			x = refReLU(x)
		}
	}
	return x
}

func refHeadFeatures(cross *refValue, dim int) *refValue {
	hg := refGatherCols(cross, 0, dim)
	hq := refGatherCols(cross, dim, 2*dim)
	diff := refAdd(hg, refScale(hq, -1))
	return refConcatCols(cross, refMul(diff, diff))
}

// refTrainRank is NeighborRanker.Train on the oracle.
func refTrainRank(r *NeighborRanker, td trainData, examples []RankExample, opts TrainOptions) {
	l := refLeaves{}
	trainLoop(r.Params, len(examples), opts, r.Cfg.Seed, func(idx int) float64 {
		ex := examples[idx]
		qc := td.queries[ex.Qi]
		hg := refGINForward(r.node, l, r.store.For(td.db[ex.Node]))
		n := len(ex.Neighbors)
		var loss *refValue
		for j, nb := range ex.Neighbors {
			in := refConcatCols(refCrossForward(r.cross, l, r.store.For(td.db[nb]), qc), hg)
			for i, h := range r.heads {
				bce := refBCEWithLogits(refMLPApply(h, l, in), refScalar(r.headTarget(i, ex.Ranks[j], n)))
				if loss == nil {
					loss = bce
				} else {
					loss = refAdd(loss, bce)
				}
			}
		}
		l.backward(loss)
		return loss.Data.At(0, 0) / float64(n*len(r.heads))
	})
}

// refTrainMembership is NeighborhoodModel.Train on the oracle.
func refTrainMembership(m *NeighborhoodModel, td trainData, examples []MembershipExample, opts TrainOptions) {
	l := refLeaves{}
	trainLoop(m.Params, len(examples), opts, m.Cfg.Seed, func(idx int) float64 {
		ex := examples[idx]
		y := 0.0
		if ex.InNQ {
			y = 1
		}
		cross := refCrossForward(m.cross, l, m.store.For(td.db[ex.G]), td.queries[ex.Qi])
		loss := refBCEWithLogits(refMLPApply(m.head, l, refHeadFeatures(cross, m.Cfg.Dim)), refScalar(y))
		l.backward(loss)
		return loss.Data.At(0, 0)
	})
}

// refTrainCluster is ClusterModel.Train on the oracle.
func refTrainCluster(m *ClusterModel, table *DistanceTable, examples []ClusterExample, opts TrainOptions) {
	l := refLeaves{}
	trainLoop(m.Params, len(examples), opts, m.Cfg.Seed, func(idx int) float64 {
		ex := examples[idx]
		qemb := m.embedder.Embed(table.Queries[ex.Qi])
		total := 0.0
		for c, truth := range ex.Intersections {
			in := m.features(nil, c, qemb)
			loss := refMSE(refMLPApply(m.head, l, refConst(&mat.Matrix{Rows: 1, Cols: len(in), Data: in})), refScalar(truth))
			l.backward(loss)
			total += loss.Data.At(0, 0)
		}
		return total / float64(len(ex.Intersections))
	})
}

// refTrainL2Route is l2route.Encoder.Train on the oracle. The encoder's
// GIN is private to its package; its weights are the registry's
// parameters in registration order, which is all the forward pass needs.
func refTrainL2Route(enc *l2route.Encoder, db graph.Database, layers, dim int, pairs []l2route.Pair, epochs int, lr float64) {
	vocab := cg.NewVocab(db)
	gin := &cg.GINModel{Cfg: cg.Config{Layers: layers, Dim: dim, Vocab: vocab}, W: enc.Params.All()}
	l := refLeaves{}
	opt := nn.NewAdam(enc.Params, lr)
	rng := rand.New(rand.NewSource(31))
	order := rng.Perm(len(pairs))
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			p := pairs[idx]
			enc.Params.ZeroGrad()
			ea := refGINForward(gin, l, cg.Build(p.A, layers, vocab))
			eb := refGINForward(gin, l, cg.Build(p.B, layers, vocab))
			sq := refSumSquares(refAdd(ea, refScale(eb, -1)))
			l.backward(refMSE(sq, refScalar(p.D)))
			opt.Step()
		}
	}
}

// sameParams fails the test at the first parameter on which two registries
// differ in any weight (==).
func sameParams(t *testing.T, model string, got, want *nn.Params) {
	t.Helper()
	names := want.Names()
	if len(got.All()) != len(names) {
		t.Fatalf("%s: %d parameters on the tape, %d on the oracle", model, len(got.All()), len(names))
	}
	trained := false
	for k, w := range want.All() {
		g := got.All()[k]
		for i, wv := range w.Data.Data {
			if gv := g.Data.Data[i]; gv != wv {
				t.Fatalf("%s: %s[%d] = %v trained on the tape, %v on the allocating oracle", model, names[k], i, gv, wv)
			}
		}
		trained = trained || w.Grad != nil
	}
	if !trained {
		t.Fatalf("%s: the oracle left every gradient nil; nothing was trained", model)
	}
}

// TestTrainMatchesReference is the training backward's contract: M_rk,
// M_nh, M_c and the l2route encoder trained on it end with the weights
// the allocating engine gives them, bit for bit, after two epochs — on
// molecule-sized graphs over 48 labels and on small graphs over 5, so the
// passes are reused for smaller and for larger examples, one-hot look-ups
// meet wide and narrow vocabularies, and Adam's second-epoch state is
// crossed. What moves a weight by one bit here moves golden_trace.json
// and every snapshot.
func TestTrainMatchesReference(t *testing.T) {
	for _, fx := range []struct {
		name string
		spec dataset.Spec
	}{
		{"aids", dataset.AIDS(0.002)},
		{"syn", dataset.SYN(0.0001)},
	} {
		t.Run(fx.name, func(t *testing.T) {
			f := newFixtureOf(t, fx.spec, 5, 3)
			cfg := Config{Dim: 8, GammaStar: f.gamma, Seed: 7}
			opts := TrainOptions{Epochs: 2, LR: 0.01}
			td := f.store.trainData(f.db, f.table)

			rankSet := BuildRankTrainingSet(f.index.PG, f.table, f.gamma)
			if len(rankSet) > 24 {
				rankSet = rankSet[:24]
			}
			got, want := NewNeighborRanker(cfg, f.store), NewNeighborRanker(cfg, f.store)
			if err := got.Train(f.db, f.table, rankSet, opts); err != nil {
				t.Fatal(err)
			}
			refTrainRank(want, td, rankSet, opts)
			sameParams(t, "M_rk", got.Params, want.Params)

			memberSet := BuildMembershipTrainingSet(f.table, f.gamma, 2, 1)
			if len(memberSet) > 96 {
				memberSet = memberSet[:96]
			}
			gotNh, wantNh := NewNeighborhoodModel(cfg, f.store), NewNeighborhoodModel(cfg, f.store)
			if err := gotNh.Train(f.db, f.table, memberSet, opts); err != nil {
				t.Fatal(err)
			}
			refTrainMembership(wantNh, td, memberSet, opts)
			sameParams(t, "M_nh", gotNh.Params, wantNh.Params)

			emb := cluster.NewFeatureEmbedder(f.db)
			points := make([][]float64, len(f.db))
			for i, g := range f.db {
				points[i] = emb.Embed(g)
			}
			km, err := cluster.FitKMeans(points, 4, 20, 1)
			if err != nil {
				t.Fatal(err)
			}
			clusterSet := BuildClusterTrainingSet(f.table, km, f.gamma)
			gotC, wantC := NewClusterModel(cfg, emb, km), NewClusterModel(cfg, emb, km)
			if err := gotC.Train(f.table, clusterSet, opts); err != nil {
				t.Fatal(err)
			}
			refTrainCluster(wantC, f.table, clusterSet, opts)
			sameParams(t, "M_c", gotC.Params, wantC.Params)

			const layers, dim = 2, 8
			pairs := l2route.SamplePairs(f.db, f.metric, 40, 3)
			gotEnc, wantEnc := l2route.NewEncoder(f.db, layers, dim, 9), l2route.NewEncoder(f.db, layers, dim, 9)
			if err := gotEnc.Train(pairs, 2, 0.01); err != nil {
				t.Fatal(err)
			}
			refTrainL2Route(wantEnc, f.db, layers, dim, pairs, 2, 0.01)
			sameParams(t, "l2route", gotEnc.Params, wantEnc.Params)
		})
	}
}
