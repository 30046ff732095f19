package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/cluster"
	"github.com/lansearch/lan/internal/lanstore"
	"github.com/lansearch/lan/internal/models"
	"github.com/lansearch/lan/internal/pg"
	"github.com/lansearch/lan/internal/route"
)

// snapshot is the metadata section of a .lansnap file — the one persisted
// form of an index. lanstore lays the database, the base-layer adjacency
// and M_rk's node embeddings out in sections of their own; everything else
// a built engine needs travels here as JSON.
type snapshot struct {
	Version   int     `json:"version"`
	GammaStar float64 `json:"gamma_star"`

	// The HNSW above the base layer.
	Upper []map[int][]int `json:"upper"`
	Level []int           `json:"level"`
	Entry int             `json:"entry"`

	// Options that shape the models, and those the write path of a
	// reopened index must share with the build. EfConstruction is absent
	// from files written before it was persisted and then defaults to 2M.
	M              int     `json:"m"`
	EfConstruction int     `json:"ef_construction"`
	Layers         int     `json:"layers"`
	Dim            int     `json:"dim"`
	BatchPercent   int     `json:"batch_percent"`
	Hidden         int     `json:"hidden"`
	UseCG          bool    `json:"use_cg"`
	TopClusters    int     `json:"top_clusters"`
	Samples        int     `json:"samples"`
	StepSize       float64 `json:"step_size"`
	Seed           int64   `json:"seed"`

	// Clustering.
	Centroids [][]float64 `json:"centroids"`
	Assign    []int       `json:"assign"`

	// Model parameters (each the output of nn.Params.Save).
	MrkParams json.RawMessage `json:"mrk_params"`
	MnhParams json.RawMessage `json:"mnh_params"`
	McParams  json.RawMessage `json:"mc_params"`

	// Mutation state of an index that received writes; a never-mutated
	// one omits it.
	Epoch uint64   `json:"epoch,omitempty"`
	Born  []uint64 `json:"born,omitempty"`
	Died  []uint64 `json:"died,omitempty"`
}

// snapshotVersion is the metadata version of the .lansnap format. Versions
// 1 and 2 were free-standing JSON index files; their readers are gone.
const snapshotVersion = 3

// maxShape bounds every shape field of the metadata: far above any real
// index (the paper's embedding dimension is 128), and small enough that
// validate's weight counts cannot overflow.
const maxShape = 1 << 16

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", lanstore.ErrCorrupt, fmt.Sprintf(format, args...))
}

// SaveSnapshotV3 writes the engine as a version-3 binary snapshot:
// self-contained (database included — nothing is re-supplied at open),
// with the M_rk node-embedding table stored as float64. st carries the
// write-path state of a mutated index (nil for one that never was).
func SaveSnapshotV3(path string, e *Engine, st *MutationState) error {
	s := snapshot{
		Version:   snapshotVersion,
		GammaStar: e.GammaStar,
		Upper:     e.Index.Upper,
		Level:     e.Index.Level,
		Entry:     e.Index.Entry,

		M: e.Opts.M, EfConstruction: e.Opts.EfConstruction,
		Layers: e.Opts.Layers, Dim: e.Opts.Dim,
		BatchPercent: e.Opts.BatchPercent, Hidden: e.Opts.Hidden,
		UseCG:       e.Opts.UseCG,
		TopClusters: e.Opts.TopClusters, Samples: e.Opts.Samples,
		StepSize: e.Opts.StepSize,
		Seed:     e.Opts.Seed,

		Centroids: e.Mc.Clusters().Centroids,
		Assign:    e.Mc.Clusters().Assign,
	}
	if st != nil && st.Epoch > 0 {
		s.Epoch = st.Epoch
		s.Born = st.Born
		s.Died = st.Died
	}
	var err error
	if s.MrkParams, err = marshalParams(e.Mrk.Params); err != nil {
		return err
	}
	if s.MnhParams, err = marshalParams(e.Mnh.Params); err != nil {
		return err
	}
	if s.McParams, err = marshalParams(e.Mc.Params); err != nil {
		return err
	}
	meta, err := json.Marshal(&s)
	if err != nil {
		return fmt.Errorf("core: snapshot meta: %w", err)
	}
	return lanstore.Write(path, &lanstore.SnapshotData{
		Meta: meta,
		DB:   e.DB,
		Adj:  e.Index.PG.Adj,
		Emb:  e.Mrk.NodeEmbeddings(),
	})
}

func marshalParams(p interface{ Save(io.Writer) error }) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return nil, err
	}
	return json.RawMessage(buf.Bytes()), nil
}

// OpenSnapshotV3 opens a version-3 binary snapshot. opts supplies the
// metrics and the worker count; every shape option comes from the file.
// The file is verified whole and decoded onto the heap, and the engine is
// indistinguishable from the one that was saved, writable included.
//
// A file that is not a snapshot, is of a newer format or fails validation
// returns an error matching lanstore.ErrNotSnapshot, ErrFutureVersion or
// ErrCorrupt.
func OpenSnapshotV3(path string, opts Options) (*Engine, *MutationState, error) {
	snap, err := lanstore.Open(path)
	if err != nil {
		return nil, nil, err
	}
	e, st, err := openV3(snap, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return e, st, nil
}

func openV3(snap *lanstore.Snapshot, opts Options) (*Engine, *MutationState, error) {
	var s snapshot
	if err := json.Unmarshal(snap.Meta, &s); err != nil {
		return nil, nil, corruptf("snapshot meta: %v", err)
	}
	if err := s.validate(len(snap.DB), len(snap.Labels)); err != nil {
		return nil, nil, err
	}
	var st *MutationState
	if s.Epoch > 0 {
		st = &MutationState{Epoch: s.Epoch, Born: s.Born, Died: s.Died}
	}
	e, err := assembleEngine(snap.DB, &s, snap.Adj, opts, snap.Emb)
	if err != nil {
		return nil, nil, err
	}
	return e, st, nil
}

// validate checks everything assembly indexes by or sizes from the
// metadata against the snapshot's graph count n and label count vocab.
// The section checksums only detect rot; this is what stands between a
// crafted file and an index-out-of-range or a terabyte allocation.
func (s *snapshot) validate(n, vocab int) error {
	if s.Version != snapshotVersion {
		return corruptf("binary snapshot carries metadata version %d, want %d", s.Version, snapshotVersion)
	}
	for _, f := range []struct {
		name     string
		v, floor int
	}{
		{"m", s.M, 1}, {"ef_construction", s.EfConstruction, 0},
		{"layers", s.Layers, 1}, {"dim", s.Dim, 1}, {"hidden", s.Hidden, 1},
		{"top_clusters", s.TopClusters, 0}, {"samples", s.Samples, 0},
	} {
		if f.v < f.floor || f.v > maxShape {
			return corruptf("%s = %d outside [%d, %d]", f.name, f.v, f.floor, maxShape)
		}
	}
	// Not the opener's safety but the query's: a step that γ absorbs opens
	// fine and then routes forever.
	if err := route.CheckStepSize(s.StepSize); err != nil {
		return corruptf("step_size: %v", err)
	}
	// A weight costs its blob at least a digit and a separator, so shapes
	// the parameter blobs cannot hold are refused before a model is sized
	// from them. Counted, as lower bounds: the W matrices of the encoders
	// (cg.NewCrossModel, cg.NewGINModel) and the first layer of every head —
	// by far most of each model. Should a model outgrow its count here,
	// every round-trip test fails at once: its own snapshots stop opening.
	bp := s.BatchPercent
	if bp <= 0 || bp > 100 {
		bp = 20 // models.Config's own clamp
	}
	heads := models.Config{BatchPercent: bp}.Heads()
	dim, hidden := int64(s.Dim), int64(s.Hidden)
	encoder := int64(vocab)*dim + int64(s.Layers-1)*dim*dim
	head := 3 * dim * hidden
	if 2*(2*encoder+int64(heads)*head) > int64(len(s.MrkParams)) ||
		2*(encoder+head) > int64(len(s.MnhParams)) || 2*hidden > int64(len(s.McParams)) {
		return corruptf("model shape (layers %d, dim %d, hidden %d) exceeds the stored parameters", s.Layers, s.Dim, s.Hidden)
	}

	if len(s.Level) != n || len(s.Assign) != n {
		return corruptf("%d levels and %d cluster assignments for %d graphs", len(s.Level), len(s.Assign), n)
	}
	for i, c := range s.Assign {
		if c < 0 || c >= len(s.Centroids) {
			return corruptf("graph %d assigned to cluster %d of %d", i, c, len(s.Centroids))
		}
	}
	if s.Entry < 0 || s.Entry >= n {
		return corruptf("entry node %d of %d graphs", s.Entry, n)
	}
	for i, l := range s.Level {
		if l < 0 || l > len(s.Upper) {
			return corruptf("graph %d on level %d of %d", i, l, len(s.Upper))
		}
	}
	for l, layer := range s.Upper {
		if layer == nil {
			return corruptf("layer %d is null", l+1)
		}
		for u, ns := range layer {
			if u < 0 || u >= n {
				return corruptf("layer %d holds node %d of %d graphs", l+1, u, n)
			}
			for _, v := range ns {
				if v < 0 || v >= n {
					return corruptf("layer %d: node %d has neighbor %d of %d graphs", l+1, u, v, n)
				}
			}
		}
	}
	if s.Epoch > 0 && (len(s.Born) != n || len(s.Died) != n) {
		return corruptf("%d/%d validity stamps for %d graphs", len(s.Born), len(s.Died), n)
	}
	return nil
}

// assembleEngine rebuilds a ready engine from validated snapshot
// metadata, the decoded database, the base-layer adjacency and M_rk's
// node-embedding table (nil: recompute it).
func assembleEngine(db graph.Database, s *snapshot, adj [][]int, opts Options, nodeEmb [][]float64) (*Engine, error) {
	opts.M, opts.EfConstruction = s.M, s.EfConstruction
	opts.Layers, opts.Dim = s.Layers, s.Dim
	opts.BatchPercent, opts.Hidden = s.BatchPercent, s.Hidden
	opts.UseCG = s.UseCG
	opts.TopClusters, opts.Samples = s.TopClusters, s.Samples
	opts.StepSize = s.StepSize
	opts.Seed = s.Seed
	opts.defaults(len(db))

	idx := &pg.HNSW{
		PG:    &pg.PG{DB: db, Adj: adj},
		Upper: s.Upper,
		Level: s.Level,
		Entry: s.Entry,
	}
	if err := idx.PG.Validate(); err != nil {
		return nil, corruptf("%v", err)
	}

	store := models.NewCGStore(db, opts.Layers, opts.UseCG)
	mcfg := models.Config{
		Layers: opts.Layers, Dim: opts.Dim, BatchPercent: opts.BatchPercent,
		Hidden: opts.Hidden, GammaStar: s.GammaStar, Seed: opts.Seed,
	}
	e := &Engine{DB: db, Index: idx, Opts: opts, Graphs: pg.NewRAMStore(db), Store: store, GammaStar: s.GammaStar}

	e.Mrk = models.NewNeighborRanker(mcfg, store)
	if err := e.Mrk.Params.Load(bytes.NewReader(s.MrkParams)); err != nil {
		return nil, corruptf("%v", err)
	}
	if nodeEmb != nil {
		if err := e.Mrk.SetNodeEmbeddings(nodeEmb, len(db)); err != nil {
			return nil, corruptf("%v", err)
		}
	} else {
		e.Mrk.PrecomputeNodeEmbeddings(db, opts.Workers)
	}
	e.Mnh = models.NewNeighborhoodModel(mcfg, store)
	if err := e.Mnh.Params.Load(bytes.NewReader(s.MnhParams)); err != nil {
		return nil, corruptf("%v", err)
	}

	emb := cluster.NewFeatureEmbedder(db)
	km := &cluster.KMeans{Centroids: s.Centroids, Assign: s.Assign, Members: make([][]int, len(s.Centroids))}
	for c, cen := range s.Centroids {
		if len(cen) != emb.Dim() {
			return nil, corruptf("centroid %d has dim %d, the feature embedding %d", c, len(cen), emb.Dim())
		}
	}
	for i, c := range s.Assign {
		km.Members[c] = append(km.Members[c], i)
	}
	e.Mc = models.NewClusterModel(mcfg, emb, km)
	if err := e.Mc.Params.Load(bytes.NewReader(s.McParams)); err != nil {
		return nil, corruptf("%v", err)
	}
	return e, nil
}
