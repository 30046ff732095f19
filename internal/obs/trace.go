package obs

import (
	"context"
	"encoding/json"
	"sync"
	"time"
)

// Trace is one query's routing trace: the entry node, every routing step
// (current node, neighbors ranked vs. opened, the threshold in force),
// the γ trajectory, and a hierarchical span tree attributing wall time
// and NDC to pipeline stages and their children (store fetches, model
// embeddings). A Trace is attached to a query via With and recovered by
// the routing pipeline via From; every recording method is safe to call
// on a nil *Trace and does nothing there, which is the disabled-tracing
// fast path (pinned at zero allocations by TestTraceDisabledZeroAlloc).
//
// Recording methods and JSON are mutex-guarded: a Trace is public, so a
// caller may hand one to concurrent searches, or render it while a search
// still records into it, without racing. A query records from its own
// goroutine only and never contends.
type Trace struct {
	QueryID string `json:"query_id"`
	Initial string `json:"initial,omitempty"`
	Routing string `json:"routing,omitempty"`
	K       int    `json:"k,omitempty"`
	Beam    int    `json:"beam,omitempty"`
	Entry   int    `json:"entry"`

	// Steps are the explored nodes in exploration order.
	Steps []TraceStep `json:"steps,omitempty"`
	// Gammas is the γ-threshold trajectory of np_route's supersteps.
	Gammas []float64 `json:"gammas,omitempty"`
	// Spans is the span forest of the query's pipeline stages in execution
	// order; child spans attribute time within their parent stage.
	Spans []*Span `json:"spans,omitempty"`
	// Events are write-path events (insert/delete/compact) when the trace
	// belongs to a mutation rather than a query.
	Events []TraceEvent `json:"events,omitempty"`

	NDC     int   `json:"ndc"`
	Results int   `json:"results"`
	TotalUS int64 `json:"total_us"`

	mu sync.Mutex
	// start anchors span offsets on the monotonic clock; set by NewTrace,
	// zero on hand-built or decoded traces (offsets then record as 0).
	start time.Time
	// open is the stack of spans started but not yet ended; leaf spans
	// recorded while a stage is open attach to the innermost one.
	open []*Span
}

// TraceStep records one exploration step: the node whose neighborhood was
// expanded, its distance to the query, how many neighbors the ranker saw
// vs. how many had their distance computed (opened), the threshold in
// force (γ in np_route's superstep phase, the current node's distance in
// the greedy phase) and the cumulative NDC after the step.
type TraceStep struct {
	Node   int     `json:"node"`
	Dist   float64 `json:"dist"`
	Ranked int     `json:"ranked"`
	Opened int     `json:"opened"`
	Gamma  float64 `json:"gamma"`
	NDC    int     `json:"ndc"`
}

// Span is one node of the trace's span tree: a named slice of the query's
// wall time with its start offset from the trace's creation (monotonic
// clock), its duration, the NDC charged within it, an optional batch size
// (store fetches, embedding batches) and nested children.
type Span struct {
	Name string `json:"name"`
	// StartUS is the span's start offset from the trace's creation, in
	// microseconds on the monotonic clock.
	StartUS int64 `json:"start_us"`
	// US is the span's duration in microseconds.
	US int64 `json:"us"`
	// NDC is the number of distance computations charged to this span.
	NDC int `json:"ndc,omitempty"`
	// N is the span's batch size where one applies: graphs fetched in a
	// store_fetch, neighbors encoded in an embed.
	N int `json:"n,omitempty"`
	// Children are the sub-spans recorded while this span was open.
	Children []*Span `json:"children,omitempty"`
}

// TraceEvent is one write-path event: the operation kind ("insert",
// "delete", "compact"), the graph id it touched, and the index epoch
// after it applied.
type TraceEvent struct {
	Kind  string `json:"kind"`
	ID    int    `json:"id"`
	Epoch uint64 `json:"epoch"`
}

// NewTrace returns an empty trace for the given query id, anchored on the
// monotonic clock so span offsets are meaningful.
func NewTrace(queryID string) *Trace { return &Trace{QueryID: queryID, start: time.Now()} }

// traceKey is the context key for the attached trace. An empty struct
// converts to an interface without allocating, so the disabled-path
// lookup is allocation-free.
type traceKey struct{}

// With attaches t to the context. A nil trace returns ctx unchanged.
func With(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// From returns the trace attached to ctx, or nil when tracing is
// disabled. Stages extract the trace once at entry and nil-check it per
// record, which is the whole per-query overhead when tracing is off.
func From(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// SetConfig records the query's search knobs. Nil-safe.
func (t *Trace) SetConfig(initial, routing string, k, beam int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Initial, t.Routing, t.K, t.Beam = initial, routing, k, beam
	t.mu.Unlock()
}

// SetEntry records the routing entry node. Nil-safe.
func (t *Trace) SetEntry(node int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Entry = node
	t.mu.Unlock()
}

// Step records one exploration step. Nil-safe.
func (t *Trace) Step(node int, dist float64, ranked, opened int, gamma float64, ndc int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Steps = append(t.Steps, TraceStep{Node: node, Dist: dist, Ranked: ranked, Opened: opened, Gamma: gamma, NDC: ndc})
	t.mu.Unlock()
}

// Gamma appends one value of the γ-threshold trajectory. Nil-safe.
func (t *Trace) Gamma(g float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Gammas = append(t.Gammas, g)
	t.mu.Unlock()
}

// sinceStartLocked returns the current offset from the trace's creation
// in microseconds (0 on hand-built traces without a clock anchor).
// Callers hold t.mu.
func (t *Trace) sinceStartLocked() int64 {
	if t.start.IsZero() {
		return 0
	}
	return time.Since(t.start).Microseconds()
}

// attachLocked appends s under the innermost open span, or at the root
// when no stage is open. Callers hold t.mu.
func (t *Trace) attachLocked(s *Span) {
	if n := len(t.open); n > 0 {
		parent := t.open[n-1]
		parent.Children = append(parent.Children, s)
		return
	}
	t.Spans = append(t.Spans, s)
}

// StartSpan opens a named span: subsequent spans (started or recorded)
// nest under it until EndSpan. Nil-safe (returns nil, which EndSpan and
// the other span methods accept).
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	s := &Span{Name: name, StartUS: t.sinceStartLocked()}
	t.attachLocked(s)
	t.open = append(t.open, s)
	t.mu.Unlock()
	return s
}

// EndSpan closes s, stamping its duration and the NDC charged within it.
// Nil-safe on both the trace and the span. Spans left open above s (a
// caller that forgot to end a child) are closed implicitly, unstamped.
func (t *Trace) EndSpan(s *Span, ndc int) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	s.US = t.sinceStartLocked() - s.StartUS
	s.NDC = ndc
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == s {
			t.open = t.open[:i]
			break
		}
	}
	t.mu.Unlock()
}

// RecordSpan attaches one completed leaf span — a store fetch, an
// embedding batch — under the currently open stage (or at the root when
// none is open). start/d are the leaf's own wall-clock measurements; n is
// its batch size (0 to omit). Nil-safe.
func (t *Trace) RecordSpan(name string, start time.Time, d time.Duration, ndc, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	off := int64(0)
	if !t.start.IsZero() && !start.IsZero() {
		off = start.Sub(t.start).Microseconds()
	}
	t.attachLocked(&Span{Name: name, StartUS: off, US: d.Microseconds(), NDC: ndc, N: n})
	t.mu.Unlock()
}

// Event records one write-path event. Nil-safe.
func (t *Trace) Event(kind string, id int, epoch uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Events = append(t.Events, TraceEvent{Kind: kind, ID: id, Epoch: epoch})
	t.mu.Unlock()
}

// Finalize stamps the query's totals. Nil-safe.
func (t *Trace) Finalize(ndc, results int, total time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.NDC, t.Results, t.TotalUS = ndc, results, total.Microseconds()
	t.mu.Unlock()
}

// JSON renders the trace as a single JSON document. Nil-safe ("null").
func (t *Trace) JSON() ([]byte, error) {
	if t == nil {
		return []byte("null"), nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return json.Marshal(t)
}

// TraceRing is a bounded ring of the most recent traces (the store behind
// lan-serve's /debug/trace/last). Safe for concurrent use.
type TraceRing struct {
	mu   sync.Mutex
	buf  []*Trace
	next int
}

// NewTraceRing returns a ring holding the last n traces (n <= 0 returns
// nil, the disabled ring — Add and Last are nil-safe).
func NewTraceRing(n int) *TraceRing {
	if n <= 0 {
		return nil
	}
	return &TraceRing{buf: make([]*Trace, 0, n)}
}

// Add inserts a trace, evicting the oldest when full. Nil-safe on both
// the ring and the trace.
func (r *TraceRing) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, t)
	} else {
		r.buf[r.next] = t
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.mu.Unlock()
}

// Get returns the stored trace with the given query id (the most recent
// one when ids repeat), or nil when absent. Nil-safe — the exemplar
// lookup path behind /debug/trace/<id>.
func (r *TraceRing) Get(id string) *Trace {
	if r == nil {
		return nil
	}
	for _, t := range r.Last() {
		if t.QueryID == id {
			return t
		}
	}
	return nil
}

// Last returns the stored traces, most recent first. Nil-safe.
func (r *TraceRing) Last() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, 0, len(r.buf))
	// The newest element sits just before next (once the ring has wrapped);
	// walk backwards from there.
	for i := 0; i < len(r.buf); i++ {
		j := (r.next - 1 - i + 2*len(r.buf)) % len(r.buf)
		out = append(out, r.buf[j])
	}
	return out
}
