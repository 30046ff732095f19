// Package lan is a learning-based approximate k-nearest-neighbor search
// engine for graph databases under graph edit distance (GED), implementing
// Peng et al., "LAN: Learning-based Approximate k-Nearest Neighbor Search
// in Graph Databases" (ICDE 2022).
//
// A LAN index combines three components built offline:
//
//   - a proximity graph over the database (an HNSW whose base layer is the
//     PG that queries route on),
//   - a neighbor-ranking model M_rk that lets the router skip GED
//     computations to unpromising PG neighbors (routing with neighbor
//     pruning), and
//   - initial-node models M_c and M_nh that start the routing inside the
//     query's GED neighborhood.
//
// All graph learning runs on compressed GNN-graphs, which provably
// preserve the uncompressed results while skipping redundant computation.
//
// Basic usage:
//
//	db := graph.NewDatabase(myGraphs)
//	index, err := lan.Build(db, trainingQueries, lan.Options{})
//	results, stats, err := index.Search(query, lan.SearchOptions{K: 10})
//
// The zero Options value picks sensible defaults for databases of a few
// thousand graphs. Build cost is dominated by proximity-graph construction
// and ground-truth distances for the training queries; both are offline
// and reported by the paper as such.
package lan

import (
	"context"
	"fmt"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/core"
	"github.com/lansearch/lan/internal/lanstore"
	"github.com/lansearch/lan/internal/models"
	"github.com/lansearch/lan/internal/mutable"
	"github.com/lansearch/lan/internal/obs"
	"github.com/lansearch/lan/internal/pg"
)

// Storage tiers that Options.Store once chose between. A snapshot now
// always opens into RAM (OpenSnapshot); the names stay so that code
// setting Options.Store keeps compiling.
const (
	// StoreMMap named the memory-mapped, read-only tier, which measured
	// no memory saving over RAM and was removed.
	//
	// Deprecated: ignored.
	StoreMMap = "mmap"
	// StoreRAM named the tier every snapshot now opens into.
	//
	// Deprecated: ignored.
	StoreRAM = "ram"
)

// Errors surfaced when opening snapshots: the file is not a snapshot at
// all (which includes the JSON index files of format versions 1 and 2,
// whose readers were removed — rebuild such an index with lan-train), was
// written by a newer format version than this build reads, or fails
// structural validation / checksums (which includes the f32 and int8
// embedding encodings, also removed — rebuild with lan-train).
var (
	ErrNotSnapshot   = lanstore.ErrNotSnapshot
	ErrFutureVersion = lanstore.ErrFutureVersion
	ErrCorrupt       = lanstore.ErrCorrupt
)

// Options configure Build. The zero value is usable. The paper's other
// settings are fixed at its values: construction beam 2M, two GNN layers,
// batch share y = 20 %, γ*'s 0.9 quantile, LAN_IS's 3 top clusters and
// s = 4 samples, and routing step d_s = 1.
type Options struct {
	// M is the proximity-graph degree parameter (default 8; base layer
	// allows 2M neighbors).
	M int
	// BuildMetric is the GED used during offline index construction
	// (default: the Riesen-Bunke bipartite upper bound, ged.Hungarian —
	// fast). The proximity graph inherits this metric's geometry, so
	// BuildMetric should approximate QueryMetric: pairing a loose build
	// bound with a tight query metric bends the index away from the
	// neighborhoods queries care about and costs recall. When QueryMetric
	// is a ged.Ensemble, a cheap ensemble (ged.Ensemble{BeamWidth: 2})
	// is the recommended build metric.
	BuildMetric ged.Metric
	// QueryMetric is the GED used to answer queries (default
	// ged.Hungarian; use a ged.Ensemble for higher-fidelity distances).
	QueryMetric ged.Metric
	// Dim is the GNN models' embedding dimension (default 16; the paper
	// uses 128).
	Dim int
	// GammaKNN calibrates the neighborhood radius gamma*: for 90 % of the
	// training queries, the neighborhood contains their GammaKNN nearest
	// neighbors (default 20).
	GammaKNN int
	// Clusters is the k of the k-means clustering learned initial-node
	// selection prunes by (default |D|/16).
	Clusters int
	// Epochs and LR control model training (defaults 30 and 0.005, with
	// the paper's x0.96-every-5-epochs decay).
	Epochs int
	LR     float64
	// Workers bounds the concurrency of offline index construction: the
	// proximity-graph build pool, the training distance table and the
	// node-embedding precompute fan out across this many goroutines, and
	// with more than one the routing model trains beside the
	// initial-selection models (default runtime.NumCPU; 1 forces
	// sequential). The built index is bit-identical for every setting.
	Workers int
	// QueryWorkers sized a per-query pool that evaluated routing-stage
	// GED calls concurrently; the pool measured 0.91–1.06× and was removed
	// (DESIGN.md, "Performance architecture"), and a query now pays its
	// distances one call after another. The field stays so that composite
	// literals naming it keep compiling.
	//
	// Deprecated: ignored.
	QueryWorkers int
	// Seed makes builds reproducible.
	Seed int64
	// Store selected the storage tier of OpenSnapshot, StoreMMap or
	// StoreRAM. Every snapshot now opens into RAM, writable; the field
	// stays so that composite literals naming it keep compiling.
	//
	// Deprecated: ignored.
	Store string
}

// SearchOptions configure one query.
type SearchOptions struct {
	// K is the number of neighbors to return (required).
	K int
	// Beam is the candidate pool size b; larger trades speed for recall
	// (default K).
	Beam int
	// Initial selects the entry-node strategy (default LANIS).
	Initial InitialStrategy
	// Routing selects the routing algorithm (default LANRoute).
	Routing RoutingStrategy
}

// InitialStrategy selects how the routing entry node is chosen.
type InitialStrategy = core.InitialStrategy

// Initial-node strategies.
const (
	// LANIS is the paper's learned initial selection (M_c + M_nh).
	LANIS = core.LANIS
	// HNSWIS descends the HNSW hierarchy.
	HNSWIS = core.HNSWIS
	// RandIS picks a deterministic pseudo-random entry.
	RandIS = core.RandIS
)

// RoutingStrategy selects the routing algorithm.
type RoutingStrategy = core.RoutingStrategy

// Routing strategies.
const (
	// LANRoute is np_route with the learned ranker M_rk.
	LANRoute = core.LANRoute
	// BaselineRoute explores every neighbor (Algorithm 1): np_route with
	// no ranker, so it shares the other strategies' loop and statistics.
	BaselineRoute = core.BaselineRoute
	// OracleRoute is np_route with an oracle ranker that orders
	// neighbors by Options.BuildMetric without charging NDC. It is the
	// true query distance only when BuildMetric is the query metric; under
	// the recommended cheap build metric beside an ensemble query metric
	// it is not.
	OracleRoute = core.OracleRoute
)

// ParseStrategies maps the wire names of a routing and an initial-node
// strategy — their String values, as lanserve's requests and lan-search's
// flags carry them — to the strategies. An empty name picks the default
// (LANRoute, LANIS).
func ParseStrategies(routing, initial string) (RoutingStrategy, InitialStrategy, error) {
	r, ok := parseName(routing, LANRoute, BaselineRoute, OracleRoute)
	if !ok {
		return 0, 0, fmt.Errorf("unknown routing %q (want lan, baseline or oracle)", routing)
	}
	i, ok := parseName(initial, LANIS, HNSWIS, RandIS)
	if !ok {
		return 0, 0, fmt.Errorf("unknown initial %q (want lan, hnsw or rand)", initial)
	}
	return r, i, nil
}

// parseName returns the strategy of all whose String is name; "" is the
// first, the default.
func parseName[S fmt.Stringer](name string, all ...S) (S, bool) {
	if name == "" {
		return all[0], true
	}
	for _, s := range all {
		if s.String() == name {
			return s, true
		}
	}
	var none S
	return none, false
}

// Result is one answer: a database graph id and its distance to the
// query.
type Result = pg.Result

// Stats report a query's cost; NDC (the number of GED computations) is
// the paper's primary efficiency metric. RankedNeighbors counts the
// neighbors handed to the ranker: those whose distance the search already
// knew join the candidate pool without being ranked, so the prune rate is
// taken over the unknown neighbors only.
type Stats = core.QueryStats

// Trace is a per-query routing trace: the entry node, every routing step
// (node, neighbors ranked vs. opened, the γ threshold in force), the γ
// trajectory and per-stage wall times. Attach one to a search with
// WithTrace; recording is nil-safe and never changes results or NDC.
type Trace = obs.Trace

// NewTrace returns an empty trace recorder for the given query id.
func NewTrace(queryID string) *Trace { return obs.NewTrace(queryID) }

// WithTrace returns a context that records the search's routing decisions
// into t. Pass it to SearchContext:
//
//	t := lan.NewTrace("q1")
//	res, stats, err := index.SearchContext(lan.WithTrace(ctx, t), q, so)
//	data, _ := t.JSON()
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return obs.With(ctx, t)
}

// TraceSpan is one node of a trace's span tree: a named slice of the
// query's wall time with nested children (embedding batches) —
// Trace.Spans.
type TraceSpan = obs.Span

// TraceExporter asynchronously writes sampled query traces to
// size-rotated JSONL segment files; the submitting (query) path never
// blocks. Wire one into lanserve.Config.Exporter or submit traces
// directly; Close it to flush and stop the writer.
type TraceExporter = obs.Exporter

// TraceExportConfig configures NewTraceExporter; only Dir is required.
type TraceExportConfig = obs.ExportConfig

// NewTraceExporter opens (or resumes) a trace segment directory and
// starts the async writer.
func NewTraceExporter(cfg TraceExportConfig) (*TraceExporter, error) { return obs.NewExporter(cfg) }

// TraceReplayStats summarize one replay of an exported trace directory.
type TraceReplayStats = obs.ReplayStats

// ReadTraceSegments replays every exported trace under dir in export
// order, calling fn per trace (nil fn just counts). A truncated final
// record — a crash mid-write — is skipped and counted, not an error.
func ReadTraceSegments(dir string, fn func(*Trace) error) (TraceReplayStats, error) {
	return obs.ReadSegments(dir, fn)
}

// Index is a built LAN search structure. Since the mutable subsystem
// landed it is also a writable one: Insert and Delete apply streaming
// updates while searches keep running. It is safe for concurrent use
// (Search/Insert/Delete from any goroutines) as long as the configured
// metrics are concurrency-safe (the defaults are): every search pins a
// point-in-time snapshot, so it sees a frozen index no matter how many
// writes land mid-query. A write repairs the edges it disturbed before it
// returns, on the caller's goroutine: the index starts no goroutine of its
// own, and the same writes always leave the same graph.
type Index struct {
	mut *mutable.Index
}

// engine returns the engine view of the current snapshot. Read-only
// callers only; writers go through x.mut.
func (x *Index) engine() *core.Engine { return x.mut.Snapshot().Engine }

// Build constructs the proximity graph over db and trains the LAN models
// on trainQueries (historical queries, or graphs sampled and perturbed
// from the database — see the dataset helpers). db must be numbered by
// graph.NewDatabase.
func Build(db graph.Database, trainQueries []*graph.Graph, o Options) (*Index, error) {
	eng, err := core.Build(db, trainQueries, core.Options{
		M: o.M, BuildMetric: o.BuildMetric, QueryMetric: o.QueryMetric,
		Dim: o.Dim, GammaKNN: o.GammaKNN, Clusters: o.Clusters,
		Train:   models.TrainOptions{Epochs: o.Epochs, LR: o.LR},
		Workers: o.Workers, Seed: o.Seed,
	})
	if err != nil {
		return nil, err
	}
	mut, err := mutable.New(eng, nil)
	if err != nil {
		return nil, err
	}
	return &Index{mut: mut}, nil
}

// Search returns the approximate k nearest neighbors of q.
func (x *Index) Search(q *graph.Graph, so SearchOptions) ([]Result, Stats, error) {
	return x.SearchContext(context.Background(), q, so)
}

// SearchContext is Search with cancellation: the context is threaded
// through the routing pipeline, which checks it before every GED
// computation, so an expired deadline or a canceled request stops the
// query within one distance call and returns ctx.Err(). The returned
// Stats meter the work done up to the cancellation point.
func (x *Index) SearchContext(ctx context.Context, q *graph.Graph, so SearchOptions) ([]Result, Stats, error) {
	return snapshotSearch(ctx, x.mut.Snapshot(), q, so)
}

// snapshotSearch answers one query against a pinned snapshot.
func snapshotSearch(ctx context.Context, snap *mutable.Snapshot, q *graph.Graph, so SearchOptions) ([]Result, Stats, error) {
	if q == nil || so.K <= 0 {
		return nil, Stats{}, fmt.Errorf("lan: need a query graph and K > 0")
	}
	// Every member tombstoned: there is nothing to return and no entry
	// node worth routing from.
	if snap.Live == 0 {
		return nil, Stats{}, nil
	}
	return snap.Engine.Search(ctx, q, core.SearchOptions{
		K: so.K, Beam: so.Beam, Initial: so.Initial, Routing: so.Routing,
	})
}

// SnapshotOptions configure SaveSnapshot; it has no fields. A snapshot
// stores M_rk's node embeddings as float64, so searches over it are
// bit-identical to the index that wrote it.
type SnapshotOptions struct{}

// SaveSnapshot writes the index to path as a .lansnap file, the one
// persisted form of an index: self-contained (the database travels inside
// it, and so do the epoch and tombstones of an index that received
// writes). The write is atomic and durable (temp file, fsync, rename), and
// captures one consistent point-in-time state: writes landing
// concurrently are either fully included or fully absent.
func (x *Index) SaveSnapshot(path string, _ SnapshotOptions) error {
	snap := x.mut.Snapshot()
	return core.SaveSnapshotV3(path, snap.Engine, snap.State())
}

// OpenSnapshot opens a snapshot written by SaveSnapshot. The database is
// inside the file — nothing else is re-supplied, though the GED metrics
// (code, not data) come from Options; the zero value matches Build's
// defaults. An index that was saved after writes comes back with them:
// tombstoned graphs stay invisible and the epoch continues where it left
// off.
//
// The whole file is read, checksummed and decoded onto the heap, and the
// index is writable: it answers, and accepts writes, exactly like the
// one that was saved. Options.Store is ignored.
func OpenSnapshot(path string, o Options) (*Index, error) {
	eng, st, err := core.OpenSnapshotV3(path, core.Options{
		BuildMetric: o.BuildMetric, QueryMetric: o.QueryMetric,
		Workers: o.Workers,
	})
	if err != nil {
		return nil, err
	}
	mut, err := mutable.New(eng, st)
	if err != nil {
		return nil, err
	}
	return &Index{mut: mut}, nil
}

// Len returns the number of live (searchable) graphs: inserts grow it,
// deletes shrink it. The id space itself only grows — deleted ids are
// never reused.
func (x *Index) Len() int { return x.mut.Len() }

// GammaStar returns the calibrated neighborhood radius gamma*.
func (x *Index) GammaStar() float64 { return x.engine().GammaStar }

// Graph returns the indexed graph with the given id (including
// tombstoned ones — ids stay resolvable forever).
func (x *Index) Graph(id int) *graph.Graph {
	e := x.engine()
	if id < 0 || id >= len(e.DB) {
		return nil
	}
	return e.DB[id]
}

// Database returns the current database view: Build's graphs followed by
// every insert, tombstoned members included.
func (x *Index) Database() graph.Database { return x.engine().DB }

// Insert adds g to the index and returns its assigned id. The graph is
// cloned and wired into the proximity graph incrementally — candidate
// beams, the diversity heuristic and degree caps all match batch
// construction, and the insertion level derives deterministically from
// (Seed, id) — and the new vertex's neighborhood is re-selected before
// Insert returns, in the one epoch the insert publishes. Cost is a
// candidate-beam search plus that repair, not a rebuild; concurrent
// searches keep serving their pinned snapshots and observe the insert on
// their next query.
func (x *Index) Insert(g *graph.Graph) (int, error) { return x.mut.Insert(g) }

// Delete tombstones graph id: it vanishes from results of all
// subsequent searches, but its vertex keeps routing traffic (soft
// deletion via validity epochs), so recall around it does not crater.
// Its live neighbors are re-selected before Delete returns, in the one
// epoch the delete publishes; Compact reclaims heavily-deleted graphs'
// edges in bulk.
func (x *Index) Delete(id int) error { return x.mut.Delete(id) }

// Compact detaches tombstoned vertices from the proximity graph,
// bridging their live neighbors so routes through them survive. Ids
// never shift. Returns the number of vertices detached.
func (x *Index) Compact() (int, error) { return x.mut.Compact() }

// Quiesce drained the edge repair a background goroutine used to run
// behind the writes. Every write now repairs before it returns, so there
// is never anything to drain. The method stays so that callers keep
// compiling.
//
// Deprecated: a no-op.
func (x *Index) Quiesce() {}

// Close rejects further writes; reads keep working. Safe to call more
// than once.
func (x *Index) Close() error { return x.mut.Close() }

// Epoch returns the index's mutation epoch: 0 for a never-mutated
// index, incremented by exactly one for every applied insert and delete
// (its edge repair included) and for every compaction that changes the
// graph. Result caches keyed by query content should fold the
// epoch into their keys — see lan-serve — so entries expire exactly
// when the index changes.
func (x *Index) Epoch() uint64 { return x.mut.Epoch() }

// IndexSnapshot is a pinned point-in-time read view of an Index.
// Searches against it return bit-identical results, stats and NDC for
// the snapshot's whole lifetime, no matter what writes land on the
// parent index — the serving-side primitive for consistent reads.
type IndexSnapshot struct {
	snap *mutable.Snapshot
}

// Snapshot pins the current state of the index for isolated reads.
func (x *Index) Snapshot() *IndexSnapshot {
	return &IndexSnapshot{snap: x.mut.Snapshot()}
}

// Epoch returns the mutation epoch this snapshot was published at.
func (s *IndexSnapshot) Epoch() uint64 { return s.snap.Epoch }

// Len returns the number of live graphs in this snapshot.
func (s *IndexSnapshot) Len() int { return s.snap.Live }

// Search answers a query against the pinned state.
func (s *IndexSnapshot) Search(q *graph.Graph, so SearchOptions) ([]Result, Stats, error) {
	return s.SearchContext(context.Background(), q, so)
}

// SearchContext is Search with cancellation, against the pinned state.
func (s *IndexSnapshot) SearchContext(ctx context.Context, q *graph.Graph, so SearchOptions) ([]Result, Stats, error) {
	return snapshotSearch(ctx, s.snap, q, so)
}
