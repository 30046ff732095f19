package pg

import "github.com/lansearch/lan/graph"

// GraphStore abstracts "fetch these candidate graphs" for the search and
// routing layers. RAMStore is the one storage behind it; the seam remains
// so that a traced search can time each batched fetch (core's
// tracedStore). Implementations must be safe for concurrent readers (one
// search runs per goroutine, but snapshot views share a store) and must
// return graphs that are never mutated by the store afterwards.
//
// FetchGraphs is the batched form: it appends the graphs for ids to dst
// and returns the extended slice. Callers own dst and reuse it across
// batches to keep the hot path allocation-free.
type GraphStore interface {
	// Len returns the number of stored graphs.
	Len() int
	// Graph returns the graph with the given id (ids are dense, 0-based).
	Graph(id int) *graph.Graph
	// FetchGraphs appends the graphs for ids to dst, in order.
	FetchGraphs(ids []int, dst []*graph.Graph) []*graph.Graph
}

// RAMStore is the heap-resident GraphStore: fetches are slice lookups
// into the in-memory database.
type RAMStore struct {
	DB graph.Database
}

// NewRAMStore wraps an in-memory database as a GraphStore.
func NewRAMStore(db graph.Database) RAMStore { return RAMStore{DB: db} }

// Len implements GraphStore.
func (s RAMStore) Len() int { return len(s.DB) }

// Graph implements GraphStore.
func (s RAMStore) Graph(id int) *graph.Graph { return s.DB[id] }

// FetchGraphs implements GraphStore.
func (s RAMStore) FetchGraphs(ids []int, dst []*graph.Graph) []*graph.Graph {
	for _, id := range ids {
		dst = append(dst, s.DB[id])
	}
	return dst
}
