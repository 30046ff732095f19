// Package lanserve is the query-serving subsystem: a stdlib-only HTTP/JSON
// server over a built LAN index with admission control, per-request
// deadlines, a result cache keyed by the exact request bytes that admits
// answers by request frequency, and first-class observability. The
// paper's contribution is cutting expensive GED calls during routing;
// the serving layer meters exactly that — NDC, routing steps and pruning
// rate are exported per query on /metrics alongside the usual
// request/error/latency signals.
//
// Endpoints:
//
//	POST /search   — answer one k-ANN query (JSON in/out)
//	POST /insert   — add one graph to the index (requires Config.Writer)
//	POST /delete   — tombstone one graph by id (requires Config.Writer)
//	GET  /metrics  — Prometheus text exposition
//	GET  /healthz  — process liveness (always 200)
//	GET  /readyz   — readiness; 503 while draining
//	GET  /debug/trace/last — the most recent per-query routing traces
//	     /debug/pprof/* — opt-in (Config.EnablePprof)
//
// The server is an http.Handler; cmd/lan-serve wires it to an http.Server
// with index loading and graceful shutdown.
package lanserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	runtimepprof "runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/obs"
)

// HTTP status aliases shared with metrics.go.
const (
	statusTooManyRequests = http.StatusTooManyRequests
	statusGatewayTimeout  = http.StatusGatewayTimeout
)

// Searcher is the index the server fronts; *lan.Index implements it.
// Implementations must be safe for concurrent SearchContext calls
// (*lan.Index is). An index that also exposes Epoch() uint64 (*lan.Index
// does) may mutate between queries:
// the result cache folds the epoch into its keys and empties itself when
// a request arrives at a newer epoch, so entries computed against a
// superseded index version are never served again. An index without
// Epoch must stay immutable for the server's lifetime.
type Searcher interface {
	SearchContext(ctx context.Context, q *graph.Graph, so lan.SearchOptions) ([]lan.Result, lan.Stats, error)
	Len() int
}

// Mutable is the write interface of an index that accepts streaming
// updates. *lan.Index implements it; snapshot-isolated reads mean a
// server may point Config.Index and Config.Writer at the same value and
// serve searches while writes land.
type Mutable interface {
	// Insert adds one graph and returns its assigned id.
	Insert(g *graph.Graph) (int, error)
	// Delete tombstones the graph with the given id.
	Delete(id int) error
}

// Config configures a Server. Index is required; every other field has a
// serving-safe default.
type Config struct {
	// Index is the built index to serve (required).
	Index Searcher
	// Writer, when set, enables POST /insert and /delete. It is normally
	// the same *lan.Index as Index — snapshot isolation keeps concurrent
	// searches consistent while writes land. Nil leaves the server
	// read-only: the write endpoints answer 501.
	Writer Mutable
	// WriteQueueDepth caps concurrent write requests; requests beyond it
	// are refused with 429 (default 8). Writes serialize on the index's
	// write lock, so the queue bounds write-path memory, not throughput.
	WriteQueueDepth int
	// Workers caps concurrently executing searches (default GOMAXPROCS).
	Workers int
	// QueueDepth caps admitted-but-waiting searches beyond Workers;
	// requests beyond Workers+QueueDepth are refused with 429 (default 64).
	QueueDepth int
	// Timeout is the per-request deadline (default 10s). A request may
	// lower it via timeout_ms but never raise it.
	Timeout time.Duration
	// CacheSize is the result-cache capacity in entries (default 1024;
	// negative disables caching). A full cache stores a new answer only
	// if its request has been more frequent than the least recently
	// used entry's; the frequency sketch behind that costs 64–128 bytes
	// an entry.
	CacheSize int
	// MaxK clamps a request's k (default 100); its beam is clamped to
	// maxBeam.
	MaxK int
	// MaxBodyBytes caps the request body of /search, /insert and /delete
	// (default 8 MiB); a longer body is answered 413.
	MaxBodyBytes int64
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// TraceRing is the capacity of the /debug/trace/last ring of recent
	// per-query routing traces (default 8; negative disables tracing and
	// the endpoint answers 404).
	TraceRing int
	// SlowQuery, when positive, logs the full routing trace of every
	// executed search whose total time reaches the threshold (via Logger).
	SlowQuery time.Duration
	// Logger, when set, receives structured records for failed requests,
	// recovered panics and slow queries; query-scoped records always carry
	// a query_id attribute (TestErrorBodiesCarryQueryID). Nil means silent.
	Logger *slog.Logger
	// Exporter, when set, receives every executed search's trace for
	// asynchronous JSONL export (the exporter applies its own sampling and
	// never blocks the query path). The server does not close it; the
	// process owning the exporter does, after the server has drained.
	Exporter *obs.Exporter
}

// maxBeam is the largest candidate pool a request may ask for.
const maxBeam = 4096

func (c *Config) defaults() error {
	if c.Index == nil {
		return errors.New("lanserve: Config.Index is required")
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.MaxK <= 0 {
		c.MaxK = 100
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.TraceRing == 0 {
		c.TraceRing = 8
	}
	if c.WriteQueueDepth <= 0 {
		c.WriteQueueDepth = 8
	}
	return nil
}

// Server serves k-ANN queries — and, with Config.Writer, streaming
// writes — over one index.
type Server struct {
	cfg      Config
	pool     *workerPool
	cache    *resultCache
	flights  *flightGroup
	metrics  *Metrics
	ring     *obs.TraceRing
	exporter *obs.Exporter
	log      *slog.Logger
	queryID  atomic.Uint64
	handler  http.Handler
	ready    atomic.Bool

	// epoch resolves the index's current version for cache keying; nil
	// when the index does not expose one (then it must be immutable).
	epoch func() uint64
	// writeSlots is the write-admission semaphore (cap WriteQueueDepth).
	writeSlots chan struct{}
}

// New validates cfg, applies defaults and returns a ready-to-serve Server.
func New(cfg Config) (*Server, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	obs.RegisterProcess()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:        cfg,
		pool:       newWorkerPool(cfg.Workers, cfg.QueueDepth),
		cache:      newResultCache(cfg.CacheSize),
		flights:    newFlightGroup(),
		metrics:    newMetrics(),
		ring:       obs.NewTraceRing(cfg.TraceRing),
		exporter:   cfg.Exporter,
		log:        logger,
		writeSlots: make(chan struct{}, cfg.WriteQueueDepth),
	}
	if ep, ok := cfg.Index.(interface{ Epoch() uint64 }); ok {
		s.epoch = ep.Epoch
	}
	s.ready.Store(true)

	mux := http.NewServeMux()
	mux.HandleFunc("/search", s.handleSearch)
	mux.HandleFunc("/insert", s.handleInsert)
	mux.HandleFunc("/delete", s.handleDelete)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/trace/last", s.handleTraceLast)
	mux.HandleFunc("/debug/trace/", s.handleTraceByID)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	if cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.handler = s.recovered(mux)
	return s, nil
}

// Handler returns the server's HTTP handler (panic recovery included).
func (s *Server) Handler() http.Handler { return s.handler }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Metrics exposes the server's registry (for embedding and tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// BeginDrain flips /readyz to 503 so load balancers stop sending new
// traffic; call it before http.Server.Shutdown, which then drains the
// connections that are already in flight.
func (s *Server) BeginDrain() { s.ready.Store(false) }

// recovered is the panic-to-500 middleware. Handler panics are recovered,
// counted, and answered with a JSON 500 — one bad request must not abort
// the process serving everyone else. (The public lan packages return
// errors rather than panicking — lan-lint's libpanic — and a panic from an
// internal package means a bug, so this is defense in depth, not a
// license.)
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.metrics.Panic()
				s.metrics.Error(http.StatusInternalServerError)
				// A panic can escape any endpoint, before a query id exists.
				s.log.Error("panic recovered", "path", r.URL.Path, "panic", fmt.Sprint(v))
				writeJSONError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// SearchRequest is the JSON body of POST /search.
type SearchRequest struct {
	// Query is the query graph ({"labels": [...], "edges": [[u,v], ...]}).
	Query *graph.Graph `json:"query"`
	// K is the number of neighbors to return (required, clamped to MaxK).
	K int `json:"k"`
	// Beam is the candidate pool size (default K, clamped to maxBeam).
	Beam int `json:"beam,omitempty"`
	// Routing is "lan" (default), "baseline" or "oracle". The oracle
	// ranks neighbors by the index's build metric, which is the query
	// metric only when the index was built with the same one.
	Routing string `json:"routing,omitempty"`
	// Initial is "lan" (default), "hnsw" or "rand".
	Initial string `json:"initial,omitempty"`
	// TimeoutMS lowers the server's per-request deadline for this query.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoCache asks for a fresh search: the response is neither read from
	// nor stored in the result cache, and the request joins no identical
	// in-flight search.
	NoCache bool `json:"no_cache,omitempty"`
}

// SearchResponse is the JSON body of a successful /search.
type SearchResponse struct {
	Results []lan.Result `json:"results"`
	Stats   SearchStats  `json:"stats"`
	// Cached reports whether the response was served from the result
	// cache; Stats then describe the original computation.
	Cached bool `json:"cached"`
	// Shared reports that an identical query was already in flight and
	// this response reuses its computation (single-flight deduplication);
	// Stats describe that shared computation.
	Shared bool `json:"shared,omitempty"`
}

// SearchStats is the wire form of the per-query cost breakdown.
type SearchStats struct {
	NDC           int     `json:"ndc"`
	Explored      int     `json:"routing_steps"`
	RankerCalls   int     `json:"ranker_calls"`
	ISPredictions int     `json:"is_predictions"`
	PruningRate   float64 `json:"pruning_rate"`
	DistMicros    int64   `json:"dist_us"`
	ModelMicros   int64   `json:"model_us"`
	TotalMicros   int64   `json:"total_us"`

	// Per-stage breakdown (added with internal/obs; zero-value omitted
	// fields keep old clients decoding unchanged).
	InitNDC       int     `json:"ndc_initial,omitempty"`
	RouteNDC      int     `json:"ndc_routing,omitempty"`
	BatchesOpened int     `json:"batches_opened,omitempty"`
	GammaSteps    int     `json:"gamma_steps,omitempty"`
	NeighborPrune float64 `json:"neighbor_prune_rate,omitempty"`
	DistCacheHits int     `json:"dist_cache_hits,omitempty"`
	InitMicros    int64   `json:"init_us,omitempty"`
	RouteMicros   int64   `json:"route_us,omitempty"`
}

// errorResponse is the JSON body of every non-200 /search outcome.
// QueryID is set on search failures so a refused or timed-out request can
// be correlated with server logs and exported traces.
type errorResponse struct {
	Error   string `json:"error"`
	QueryID string `json:"query_id,omitempty"`
}

// searchParams are the validated, clamped search knobs.
type searchParams struct {
	K, Beam int
	Routing lan.RoutingStrategy
	Initial lan.InitialStrategy
}

func (s *Server) parseRequest(body []byte) (*SearchRequest, searchParams, error) {
	var req SearchRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, searchParams{}, fmt.Errorf("bad request body: %v", err)
	}
	if req.Query == nil || req.Query.N() == 0 {
		return nil, searchParams{}, errors.New("need a non-empty query graph")
	}
	if err := req.Query.Validate(); err != nil {
		return nil, searchParams{}, fmt.Errorf("bad query graph: %v", err)
	}
	if req.K <= 0 {
		return nil, searchParams{}, errors.New("need k > 0")
	}
	p := searchParams{K: req.K, Beam: req.Beam}
	if p.K > s.cfg.MaxK {
		p.K = s.cfg.MaxK
	}
	if p.Beam < p.K {
		p.Beam = p.K
	}
	if p.Beam > maxBeam {
		p.Beam = maxBeam
	}
	var err error
	if p.Routing, p.Initial, err = lan.ParseStrategies(req.Routing, req.Initial); err != nil {
		return nil, searchParams{}, err
	}
	return &req, p, nil
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	start := time.Now()
	s.metrics.Request()
	// The query id exists from the first byte of handling, so every error
	// body and log line — 400s included — can name the request.
	qid := "q" + strconv.FormatUint(s.queryID.Add(1), 10)
	fail := func(code int, msg string) {
		s.metrics.Error(code)
		s.metrics.ObserveLatency(time.Since(start).Seconds(), "")
		s.log.Warn("search failed", "query_id", qid, "code", code, "err", msg)
		writeJSON(w, code, errorResponse{Error: msg, QueryID: qid})
	}

	body, code, err := s.readBody(w, r)
	if err != nil {
		fail(code, err.Error())
		return
	}

	// Cache lookup before decoding and admission: a hit writes the bytes
	// stored when the same request bytes missed, and costs no decode, no
	// worker and no GED. The key carries the index epoch, so the first
	// lookup after a write empties the cache of entries computed before
	// it. Every lookup, hit or miss, counts toward the request's admission
	// frequency. A no_cache body is never stored, so its lookup cannot hit.
	var key cacheKey
	if s.cache != nil {
		key = bodyKey(s.indexEpoch(), body)
		if hit, ok := s.cache.get(key); ok {
			s.metrics.Cache(true)
			s.metrics.ObserveLatency(time.Since(start).Seconds(), "")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(hit) // the status line is already out; nothing to recover
			return
		}
	}

	req, params, err := s.parseRequest(body)
	if err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}
	if s.cache != nil {
		s.metrics.Cache(false)
	}

	// Deadline: the server's ceiling, lowered by the request if asked.
	timeout := s.cfg.Timeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Single-flight deduplication: if an identical query (same cache key)
	// is already being computed, wait for its answer instead of admitting
	// a duplicate search. Sits between the cache miss and admission so it
	// costs nothing on hits and spends no worker on duplicates. NoCache
	// requests bypass it — they asked for a fresh computation.
	var (
		fl         *flight
		leaderResp *SearchResponse
	)
	defer func() {
		if fl != nil {
			// Publish on every exit path (nil = failed); a leaked flight
			// would stall followers until their deadlines.
			s.flights.complete(key, fl, leaderResp)
		}
	}()
	if s.cache != nil && !req.NoCache {
		f, leader := s.flights.join(key)
		if leader {
			fl = f
		} else {
			select {
			case <-f.done:
				if f.resp != nil {
					s.metrics.SingleflightShared()
					s.metrics.ObserveLatency(time.Since(start).Seconds(), "")
					shared := *f.resp
					shared.Shared = true
					writeJSON(w, http.StatusOK, &shared)
					return
				}
				// The leader failed; its error may have been specific to
				// that request (deadline, disconnect), so compute our own.
			case <-ctx.Done():
				fail(http.StatusGatewayTimeout, "deadline expired while awaiting identical in-flight query")
				return
			}
		}
	}

	// Admission control: refuse instantly when the system is full.
	if !s.pool.tryAdmit() {
		fail(http.StatusTooManyRequests, "admission queue full")
		return
	}
	s.metrics.QueueEnter()
	release, err := s.pool.acquireWorker(ctx)
	s.metrics.QueueExit()
	if err != nil {
		// Deadline expired (or client left) while queued; the admission
		// slot has already been released by acquireWorker.
		fail(http.StatusGatewayTimeout, "deadline expired while queued")
		return
	}

	// Per-query trace, recorded into the /debug/trace/last ring, the
	// slow-query log and the async exporter. Tracing never changes results
	// or NDC (the recorder only observes), so cached and traced responses
	// stay identical. A traced query's id is also its metric buckets'
	// exemplar, linking /metrics outliers to /debug/trace/<id>.
	var (
		qt      *obs.Trace
		traceID string
	)
	if s.ring != nil || s.cfg.SlowQuery > 0 || s.exporter != nil {
		qt, traceID = obs.NewTrace(qid), qid
	}

	s.metrics.WorkStart()
	var (
		res   []lan.Result
		stats lan.Stats
	)
	// pprof labels attribute CPU samples of this goroutine (and of the
	// goroutines the search starts, which inherit them) to the query and
	// its strategy.
	runtimepprof.Do(obs.With(ctx, qt), runtimepprof.Labels(
		"query_id", qid,
		"strategy", params.Routing.String(),
	), func(ctx context.Context) {
		res, stats, err = s.cfg.Index.SearchContext(ctx, req.Query, lan.SearchOptions{
			K: params.K, Beam: params.Beam, Routing: params.Routing, Initial: params.Initial,
		})
	})
	s.metrics.WorkEnd()
	release()
	s.ring.Add(qt)
	if s.exporter != nil {
		s.exporter.Submit(qt)
	}
	if s.cfg.SlowQuery > 0 && stats.Total >= s.cfg.SlowQuery {
		if data, jerr := qt.JSON(); jerr == nil {
			s.log.Warn("slow query",
				"query_id", qid,
				"total_us", stats.Total.Microseconds(),
				"threshold_us", s.cfg.SlowQuery.Microseconds(),
				"trace", json.RawMessage(data))
		}
	}
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			fail(http.StatusGatewayTimeout, "deadline expired during search")
		case errors.Is(err, context.Canceled):
			fail(http.StatusGatewayTimeout, "request canceled")
		default:
			fail(http.StatusInternalServerError, err.Error())
		}
		return
	}

	indexSize := s.cfg.Index.Len()
	pruning := 0.0
	if indexSize > 0 {
		pruning = 1 - float64(stats.NDC)/float64(indexSize)
	}
	resp := &SearchResponse{
		Results: res,
		Stats: SearchStats{
			NDC:           stats.NDC,
			Explored:      stats.Explored,
			RankerCalls:   stats.RankerCalls,
			ISPredictions: stats.ISPredictions,
			PruningRate:   pruning,
			DistMicros:    stats.DistTime.Microseconds(),
			ModelMicros:   stats.ModelTime.Microseconds(),
			TotalMicros:   stats.Total.Microseconds(),

			InitNDC:       stats.InitNDC,
			RouteNDC:      stats.RouteNDC,
			BatchesOpened: stats.BatchesOpened,
			GammaSteps:    stats.GammaSteps,
			NeighborPrune: stats.PruneRate(),
			DistCacheHits: stats.DistCacheHits,
			InitMicros:    stats.InitTime.Microseconds(),
			RouteMicros:   stats.RouteTime.Microseconds(),
		},
	}
	if s.cache != nil && !req.NoCache {
		// Stored encoded, so a hit writes it as is. An encoding failure
		// only leaves the response uncached, as does losing admission to
		// a more frequent entry or an index write during the search.
		hit := *resp
		hit.Cached = true
		if data, err := json.Marshal(&hit); err == nil && !s.cache.put(key, append(data, '\n')) {
			s.metrics.CacheRejected()
		}
	}
	leaderResp = resp
	s.metrics.ObserveQuery(stats.NDC, stats.Explored, indexSize, traceID)
	s.metrics.ObserveLatency(time.Since(start).Seconds(), traceID)
	writeJSON(w, http.StatusOK, resp)
}

// indexEpoch returns the index's current version, 0 when the index does
// not expose one (immutable by contract, so 0 is a stable key).
func (s *Server) indexEpoch() uint64 {
	if s.epoch == nil {
		return 0
	}
	return s.epoch()
}

// InsertRequest is the JSON body of POST /insert.
type InsertRequest struct {
	// Graph is the graph to add ({"labels": [...], "edges": [[u,v], ...]}).
	Graph *graph.Graph `json:"graph"`
}

// InsertResponse is the JSON body of a successful /insert.
type InsertResponse struct {
	// ID is the new graph's index-assigned id, usable in /delete and
	// matching the ids /search returns.
	ID int `json:"id"`
	// Epoch is the index version after the insert.
	Epoch uint64 `json:"epoch"`
}

// DeleteRequest is the JSON body of POST /delete.
type DeleteRequest struct {
	// ID is the id of the graph to tombstone.
	ID int `json:"id"`
}

// DeleteResponse is the JSON body of a successful /delete.
type DeleteResponse struct {
	// Epoch is the index version after the delete.
	Epoch uint64 `json:"epoch"`
}

// admitWrite claims a write slot, failing the request when Writer is
// unset (501) or the write queue is full (429). The returned release is
// nil exactly when admission failed (the response has been written).
func (s *Server) admitWrite(w http.ResponseWriter, r *http.Request, op string) func() {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return nil
	}
	s.metrics.Write(op)
	if s.cfg.Writer == nil {
		s.metrics.Error(http.StatusNotImplemented)
		writeJSONError(w, http.StatusNotImplemented, "read-only server: no writer configured")
		return nil
	}
	select {
	case s.writeSlots <- struct{}{}:
		return func() { <-s.writeSlots }
	default:
		s.metrics.Error(statusTooManyRequests)
		writeJSONError(w, statusTooManyRequests, "write queue full")
		return nil
	}
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	release := s.admitWrite(w, r, "insert")
	if release == nil {
		return
	}
	defer release()
	start := time.Now()

	var req InsertRequest
	if !s.decodeWrite(w, r, &req) {
		return
	}
	if req.Graph == nil || req.Graph.N() == 0 {
		s.metrics.Error(http.StatusBadRequest)
		writeJSONError(w, http.StatusBadRequest, "need a non-empty graph")
		return
	}

	id, err := s.cfg.Writer.Insert(req.Graph)
	if err != nil {
		s.metrics.Error(http.StatusBadRequest)
		s.log.Warn("insert failed", "err", err.Error())
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	epoch := s.indexEpoch()
	s.recordWrite("insert", id, epoch, time.Since(start))
	writeJSON(w, http.StatusOK, &InsertResponse{ID: id, Epoch: epoch})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	release := s.admitWrite(w, r, "delete")
	if release == nil {
		return
	}
	defer release()
	start := time.Now()

	var req DeleteRequest
	if !s.decodeWrite(w, r, &req) {
		return
	}

	if err := s.cfg.Writer.Delete(req.ID); err != nil {
		// "no graph with id" and double deletes are caller mistakes, not
		// server faults.
		s.metrics.Error(http.StatusBadRequest)
		s.log.Warn("delete failed", "err", err.Error())
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	epoch := s.indexEpoch()
	s.recordWrite("delete", req.ID, epoch, time.Since(start))
	writeJSON(w, http.StatusOK, &DeleteResponse{Epoch: epoch})
}

// readBody reads a request body of at most Config.MaxBodyBytes — the one
// body reader of every endpoint. A longer body fails with 413, any other
// read error with 400; code is the status to answer.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (body []byte, code int, err error) {
	body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", tooLarge.Limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err)
	}
	return body, http.StatusOK, nil
}

// decodeWrite reads and decodes a write request's body into req,
// answering the failure itself (413 or 400) when it returns false.
func (s *Server) decodeWrite(w http.ResponseWriter, r *http.Request, req any) bool {
	body, code, err := s.readBody(w, r)
	if err == nil {
		if err = json.NewDecoder(bytes.NewReader(body)).Decode(req); err != nil {
			code, err = http.StatusBadRequest, fmt.Errorf("bad request body: %v", err)
		}
	}
	if err != nil {
		s.metrics.Error(code)
		writeJSONError(w, code, err.Error())
		return false
	}
	return true
}

// recordWrite stamps one applied write into the metrics and, when
// tracing is on, the /debug/trace/last ring (as a trace holding a single
// write event — searches and writes interleave there in arrival order).
func (s *Server) recordWrite(op string, id int, epoch uint64, took time.Duration) {
	s.metrics.ObserveWrite(took.Seconds())
	if s.ring == nil {
		return
	}
	qt := obs.NewTrace("w" + strconv.FormatUint(s.queryID.Add(1), 10))
	qt.Event(op, id, epoch)
	s.ring.Add(qt)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := s.metrics.WriteTo(w); err != nil {
		s.log.Warn("metrics write failed", "err", err.Error())
		return
	}
	// Process-wide families (lan_query_*, lan_process_*, lan_build_info)
	// follow the server's own; names are disjoint, so concatenation is a
	// valid exposition.
	if _, err := obs.Default().WriteTo(w); err != nil {
		s.log.Warn("metrics write failed", "err", err.Error())
	}
}

// handleTraceLast serves the bounded ring of the most recent per-query
// routing traces as a JSON array, newest first. 404 when tracing is
// disabled (Config.TraceRing < 0).
func (s *Server) handleTraceLast(w http.ResponseWriter, r *http.Request) {
	if s.ring == nil {
		writeJSONError(w, http.StatusNotFound, "tracing disabled")
		return
	}
	traces := s.ring.Last()
	out := make([]json.RawMessage, 0, len(traces))
	for _, t := range traces {
		data, err := t.JSON()
		if err != nil {
			continue
		}
		out = append(out, data)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTraceByID serves one trace by query id: first from the in-memory
// ring, then — when an exporter is configured — from the exported JSONL
// segments on disk, so exemplar trace ids in /metrics stay resolvable
// after the ring has moved on. 404 when neither holds the id.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	if id == "" || strings.Contains(id, "/") {
		writeJSONError(w, http.StatusNotFound, "not found")
		return
	}
	t := s.ring.Get(id)
	if t == nil && s.exporter != nil {
		exported, err := obs.LookupExported(s.exporter.Dir(), id)
		if err != nil {
			s.log.Warn("trace lookup failed", "trace_id", id, "err", err.Error())
			writeJSONError(w, http.StatusInternalServerError, "trace lookup failed")
			return
		}
		t = exported
	}
	if t == nil {
		writeJSONError(w, http.StatusNotFound, "no trace with id "+id)
		return
	}
	data, err := t.JSON()
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func writeJSONError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}
