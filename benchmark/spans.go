package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's public function: "query" around Index.Search with "ged.distance"
// children from the metric wrapper, "http.request" around one HTTP round
// trip, "insert" around Index.Insert. Op groups the spans of one operation.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out only at exit (-out).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0)),
	})
	return id
}

// begin opens a span whose children are recorded before it ends.
func (t *tracer) begin(name string, op int, start time.Time) int {
	return t.add(name, 0, op, start, start)
}

func (t *tracer) finish(id int, end time.Time) {
	t.mu.Lock()
	t.spans[id-1].EndNS = int64(end.Sub(t.t0))
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of
// that interval its child spans cover. Children may overlap one another
// (parallel parts), so their cover is the union of their intervals clipped
// to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.EndNS - s.StartNS - covered(children[s.ID], s.StartNS, s.EndNS))
	}
	return out
}

// covered is the length of the union of the intervals within [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	edge := lo
	for _, x := range iv {
		a, b := max(x[0], edge), min(x[1], hi)
		if b > a {
			total += b - a
			edge = b
		}
	}
	return total
}
