package core

import (
	"time"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/obs"
	"github.com/lansearch/lan/internal/pg"
)

// tracedStore wraps a GraphStore so each batched fetch lands in the query
// trace as a "store_fetch" leaf span under whichever stage is open. Only
// FetchGraphs is intercepted: the per-id Graph accessor sits on the
// per-distance hot path and passes through to the embedded store, so a
// traced query pays one span per candidate batch, not one per distance.
// Installed by Search only when the context carries a trace; the
// disabled path keeps the store's direct calls.
type tracedStore struct {
	pg.GraphStore
	trace *obs.Trace
}

func (s tracedStore) FetchGraphs(ids []int, dst []*graph.Graph) []*graph.Graph {
	start := time.Now()
	out := s.GraphStore.FetchGraphs(ids, dst)
	s.trace.RecordSpan("store_fetch", start, time.Since(start), 0, len(ids))
	return out
}
