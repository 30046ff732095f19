// Package dataset generates the synthetic stand-ins for the paper's
// benchmark datasets (Table I) and the query workloads and ground truths
// the experiments need. The real AIDS/LINUX/PUBCHEM extracts are
// proprietary, so each simulator matches the published statistics — graph
// count (down-scaled by a configurable factor), average node and edge
// counts, label alphabet size and skew — and plants cluster structure by
// deriving most graphs from mutated seeds, which is what gives the GED
// landscape the neighborhoods that proximity-graph routing exploits.
package dataset

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/order"
	"github.com/lansearch/lan/internal/pg"
)

// Kind selects the structural family of a synthetic dataset.
type Kind int

// Structural families.
const (
	// KindMolecule produces tree-plus-rings molecule skeletons (AIDS,
	// PUBCHEM).
	KindMolecule Kind = iota
	// KindCFG produces control-flow-graph-like chains with branches
	// (LINUX).
	KindCFG
	// KindRandom produces connected random graphs (SYN).
	KindRandom
)

// Spec describes a synthetic dataset.
type Spec struct {
	Name      string
	Kind      Kind
	Graphs    int
	AvgNodes  float64
	AvgEdges  float64
	NumLabels int
	// LabelSkew in [0,1): higher concentrates mass on few labels (as in
	// molecule datasets dominated by C/N/O).
	LabelSkew float64
	// ClusterSize is the number of graphs derived from each seed graph
	// (>= 1). Larger values plant denser GED neighborhoods.
	ClusterSize int
	// MaxMutations bounds the edit operations applied to derive a cluster
	// member from its seed.
	MaxMutations int
	Seed         int64
}

// Table I of the paper, reproduced at scale 1.0. Use Scaled to shrink.
var (
	aidsFull    = Spec{Name: "AIDS", Kind: KindMolecule, Graphs: 42687, AvgNodes: 25.6, AvgEdges: 27.5, NumLabels: 51, LabelSkew: 0.35, ClusterSize: 16, MaxMutations: 6, Seed: 4201}
	linuxFull   = Spec{Name: "LINUX", Kind: KindCFG, Graphs: 47239, AvgNodes: 35.5, AvgEdges: 37.7, NumLabels: 36, LabelSkew: 0.2, ClusterSize: 16, MaxMutations: 6, Seed: 4202}
	pubchemFull = Spec{Name: "PUBCHEM", Kind: KindMolecule, Graphs: 22794, AvgNodes: 48.2, AvgEdges: 50.8, NumLabels: 10, LabelSkew: 0.45, ClusterSize: 16, MaxMutations: 8, Seed: 4203}
	synFull     = Spec{Name: "SYN", Kind: KindRandom, Graphs: 1000000, AvgNodes: 10.1, AvgEdges: 15.9, NumLabels: 5, LabelSkew: 0.1, ClusterSize: 20, MaxMutations: 4, Seed: 4204}
)

// AIDS returns the AIDS simulator at the given scale in (0, 1].
func AIDS(scale float64) Spec { return aidsFull.Scaled(scale) }

// LINUX returns the LINUX simulator at the given scale.
func LINUX(scale float64) Spec { return linuxFull.Scaled(scale) }

// PubChem returns the PUBCHEM simulator at the given scale.
func PubChem(scale float64) Spec { return pubchemFull.Scaled(scale) }

// SYN returns the SYN simulator at the given scale. The paper itself only
// ever uses 20%-100% of SYN.
func SYN(scale float64) Spec { return synFull.Scaled(scale) }

// Scaled returns a copy of s with the graph count multiplied by scale
// (minimum 2 graphs); all per-graph statistics are preserved.
func (s Spec) Scaled(scale float64) Spec {
	out := s
	n := int(float64(s.Graphs) * scale)
	if n < 2 {
		n = 2
	}
	out.Graphs = n
	base := s.Name
	if i := strings.IndexByte(base, '@'); i >= 0 {
		base = base[:i]
	}
	out.Name = fmt.Sprintf("%s@%.3g", base, scale)
	return out
}

// Labels returns the dataset's label alphabet.
func (s Spec) Labels() []string {
	labels := make([]string, s.NumLabels)
	for i := range labels {
		labels[i] = fmt.Sprintf("L%02d", i)
	}
	return labels
}

// Generate materializes the dataset.
func (s Spec) Generate() graph.Database {
	if s.ClusterSize < 1 {
		s.ClusterSize = 1
	}
	gen := graph.NewGenerator(s.Seed)
	rng := rand.New(rand.NewSource(s.Seed ^ 0x5eed))
	labels := s.Labels()
	gs := make([]*graph.Graph, 0, s.Graphs)
	for len(gs) < s.Graphs {
		seedGraph := s.newSeed(gen, rng, labels)
		gs = append(gs, seedGraph)
		for i := 1; i < s.ClusterSize && len(gs) < s.Graphs; i++ {
			ops := 1 + rng.Intn(s.MaxMutations)
			gs = append(gs, gen.Mutate(seedGraph, ops, labels))
		}
	}
	return graph.NewDatabase(gs)
}

// newSeed draws one cluster-seed graph with size jittered around the
// dataset averages.
func (s Spec) newSeed(gen *graph.Generator, rng *rand.Rand, labels []string) *graph.Graph {
	n := jitter(rng, s.AvgNodes)
	extraEdges := int(s.AvgEdges-s.AvgNodes+1) + rng.Intn(3)
	if extraEdges < 0 {
		extraEdges = 0
	}
	switch s.Kind {
	case KindMolecule:
		return gen.MoleculeLike(n, extraEdges, labels, s.LabelSkew)
	case KindCFG:
		return gen.CFGLike(n, labels, s.LabelSkew)
	default:
		m := jitter(rng, s.AvgEdges)
		return gen.RandomConnected(n, m, labels, s.LabelSkew)
	}
}

// jitter draws an integer around avg with +-25% spread, at least 2.
func jitter(rng *rand.Rand, avg float64) int {
	v := int(avg * (0.75 + rng.Float64()*0.5))
	if v < 2 {
		v = 2
	}
	return v
}

// Workload draws n query graphs following the paper's protocol of
// sampling the workload from the database distribution: each query is a
// random database member with at most two edit operations applied (ID -1),
// so queries sit inside existing GED neighborhoods just as sampled
// database graphs do.
func Workload(db graph.Database, spec Spec, n int, seed int64) []*graph.Graph {
	gen := graph.NewGenerator(seed)
	rng := rand.New(rand.NewSource(seed ^ 0xabcd))
	labels := spec.Labels()
	out := make([]*graph.Graph, n)
	for i := range out {
		base := db[rng.Intn(len(db))]
		out[i] = gen.Mutate(base, rng.Intn(3), labels)
	}
	return out
}

// QuerySpec pins one workload query: the database member it perturbs,
// the number of edit operations, and a private generator seed, so each
// query regenerates the same graph independently of the others and of
// how Workload samples — how the benchmark draws its query pools
// (benchmark/workload.go).
type QuerySpec struct {
	Base int   `json:"base"`
	Ops  int   `json:"ops"`
	Seed int64 `json:"seed"`
}

// FixedWorkload's refusals: a spec that does not fit the database it is
// materialized over.
var (
	ErrQueryBase = errors.New("dataset: query base id out of range")
	ErrQueryOps  = errors.New("dataset: negative query op count")
)

// FixedWorkload materializes query specs over db (ID -1, like Workload).
// It fails when a base id is out of range — the specs were drawn against
// a different dataset size — instead of silently answering the wrong
// queries.
func FixedWorkload(db graph.Database, spec Spec, qs []QuerySpec) ([]*graph.Graph, error) {
	labels := spec.Labels()
	out := make([]*graph.Graph, len(qs))
	for i, q := range qs {
		if q.Base < 0 || q.Base >= len(db) {
			return nil, fmt.Errorf("%w: query %d has base %d, database has %d graphs", ErrQueryBase, i, q.Base, len(db))
		}
		if q.Ops < 0 {
			return nil, fmt.Errorf("%w: query %d has %d", ErrQueryOps, i, q.Ops)
		}
		gen := graph.NewGenerator(q.Seed)
		out[i] = gen.Mutate(db[q.Base], q.Ops, labels)
	}
	return out, nil
}

// Split partitions a workload 6:2:2 into train, validation and test sets,
// following the paper's protocol.
func Split(queries []*graph.Graph) (train, val, test []*graph.Graph) {
	n := len(queries)
	t1 := n * 6 / 10
	t2 := n * 8 / 10
	return queries[:t1], queries[t1:t2], queries[t2:]
}

// GroundTruth holds the exact (protocol) k-NNs of one query.
type GroundTruth struct {
	Query   *graph.Graph
	Results []pg.Result
}

// ComputeGroundTruth brute-forces the k-NNs of every query under metric,
// one query per call on a pg.WorkerPool of runtime.NumCPU workers. This is
// the paper's ground-truth protocol when metric is a ged.Ensemble.
func ComputeGroundTruth(db graph.Database, queries []*graph.Graph, metric ged.Metric, k int) []GroundTruth {
	out := make([]GroundTruth, len(queries))
	pool := pg.NewWorkerPool(0)
	defer pool.Close()
	pool.Run(len(queries), func(i int) {
		out[i] = GroundTruth{Query: queries[i], Results: BruteForceKNN(db, queries[i], metric, k)}
	})
	return out
}

// BruteForceKNN scans the whole database for the k nearest neighbors of q.
func BruteForceKNN(db graph.Database, q *graph.Graph, metric ged.Metric, k int) []pg.Result {
	res := make([]pg.Result, len(db))
	for i, g := range db {
		res[i] = pg.Result{ID: i, Dist: metric.Distance(g, q)}
	}
	sort.Slice(res, func(i, j int) bool {
		return order.ByDistThenID(res[i].Dist, res[i].ID, res[j].Dist, res[j].ID)
	})
	if len(res) > k {
		res = res[:k]
	}
	return res
}

// Recall returns |got ∩ truth| / |truth| — the paper's recall@k. Ties at
// the k-th distance are treated as hits, as is standard when the true k-th
// distance is not unique.
func Recall(got, truth []pg.Result) float64 {
	if len(truth) == 0 {
		return 1
	}
	truthSet := make(map[int]bool, len(truth))
	kthDist := truth[len(truth)-1].Dist
	for _, r := range truth {
		truthSet[r.ID] = true
	}
	hits := 0
	for _, r := range got {
		if truthSet[r.ID] || r.Dist <= kthDist {
			hits++
		}
	}
	if hits > len(truth) {
		hits = len(truth)
	}
	return float64(hits) / float64(len(truth))
}
