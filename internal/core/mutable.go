package core

import (
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/cluster"
	"github.com/lansearch/lan/internal/pg"
)

// MutationState is the write-path state a mutated engine carries beyond
// its immutable snapshot: the current epoch and per-graph validity
// stamps. It travels in the metadata of a saved snapshot.
type MutationState struct {
	// Epoch is the number of applied mutations (0 = never mutated).
	Epoch uint64
	// Born[i] is the epoch graph i was inserted at (0 = original batch
	// build).
	Born []uint64
	// Died[i] is the epoch graph i was tombstoned at (0 = alive).
	Died []uint64
}

// SnapshotView assembles a read-only engine over pinned views of the
// mutable structures: the database header, the proximity graph (with
// its tombstone filter) and the model-side tables that grow with
// inserts (M_rk's node embeddings, M_c's clustering). Everything else —
// trained parameters, the CG store, γ* — is immutable after build and
// shared. The returned engine answers queries exactly like a freshly
// built one over the same data; it must not be mutated.
func (e *Engine) SnapshotView(db graph.Database, idx *pg.HNSW, embs [][]float64, km *cluster.KMeans) *Engine {
	view := *e
	view.DB = db
	view.Index = idx
	view.Graphs = pg.NewRAMStore(db)
	view.Mrk = e.Mrk.WithNodeEmbeddings(embs)
	view.Mc = e.Mc.WithClusters(km)
	return &view
}
