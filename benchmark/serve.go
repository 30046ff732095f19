package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/pg"
	"github.com/lansearch/lan/lanserve"
)

// serve_zipf's shape. The timed run replays one trace of serveTrace zipf
// draws a dozen times over. A trace holds about 30 distinct queries, the
// result cache 16, so under replay the hit share settles near 0.7: the
// median request is a cache hit and the 90th percentile a full search on the
// mmap tier.
const (
	servePool    = 512
	serveCache   = 16
	serveWorkers = 2 // lanserve.Config.Workers: one search per core
	zipfExponent = 1.5
	serveConns   = 2   // keep-alive connections, one request in flight on each: one per core
	serveRate    = 100 // requests per second in the timed run: well under half of what saturates the two workers
	serveTrace   = 100 // requests in the trace: one second at serveRate, so a run replays it a dozen times
	replyLimit   = time.Second
	latencyLimit = 50 * time.Millisecond // on the 90th percentile, for max_ok_rps
)

// ladder is the fixed rates of the traced run, in requests per second.
var ladder = []int{50, 100, 200, 400, 800}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
// math/rand's Zipf needs s > 1, and the hit share we want needs s < 1.
type zipf struct {
	cdf []float64
	rng *rand.Rand
}

func newZipf(rng *rand.Rand, n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	return &zipf{cdf: cdf, rng: rng}
}

// take draws n ranks, stratified: the n uniform variates are one from each
// n-th of the unit interval, in shuffled order. Every rank then appears
// within one of its expected count in any seed's draws and only the order
// differs, which takes most of the seed-to-seed swing out of the hit share
// without changing the distribution.
func (z *zipf) take(n int) []int {
	total := z.cdf[len(z.cdf)-1]
	out := make([]int, n)
	for i := range out {
		u := (float64(i) + z.rng.Float64()) / float64(n)
		out[i] = sort.SearchFloat64s(z.cdf, u*total)
	}
	z.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// clock lets the scheduler's test run on fake time.
type clock interface {
	Now() time.Time
	WaitUntil(time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// WaitUntil sleeps to within a millisecond of t and yields through the
// rest: a sleeping goroutine wakes a quarter to a full millisecond late on
// this kind of machine, which is several times the cache-hit path that the
// median request measures.
func (wallClock) WaitUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// timing is one scheduled operation: when it was due, when the generator
// started it and when it completed.
type timing struct {
	due, sent, done time.Time
}

// latency counts from the due time, not from the send.
func (t timing) latency() time.Duration { return t.done.Sub(t.due) }

// late is how far behind its schedule the generator started the operation.
func (t timing) late() time.Duration { return t.sent.Sub(t.due) }

// openLoop runs n operations on a fixed schedule — operation i is due at
// start + i*interval, whatever happened to the ones before — over a fixed
// number of workers, each with one operation in flight. Latency counts from
// the due time, so a stall shows in every operation it delays. With
// interval 0 everything is due at once and the workers form a closed loop.
func openLoop(clk clock, workers, n int, interval time.Duration, do func(worker, i int)) []timing {
	out := make([]timing, n)
	start := clk.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				clk.WaitUntil(due)
				sent := clk.Now()
				do(w, i)
				out[i] = timing{due: due, sent: sent, done: clk.Now()}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// httpServer is an in-process lanserve.Server on a loopback listener and
// the keep-alive connections that load it.
type httpServer struct {
	lan      *lanserve.Server
	hs       *http.Server
	addr     string
	wg       sync.WaitGroup
	conns    []*clientConn
	bodies   [][]byte // one JSON /search body per pool query
	requests [][]byte // the same, as sent on the wire
}

// clientConn is one keep-alive HTTP/1.1 connection driven from the calling
// goroutine: write the request, read the response. net/http's client hands
// every request through two more goroutines of its own, and on this
// machine their wake-ups cost more than the cache-hit path being measured.
type clientConn struct {
	c  net.Conn
	br *bufio.Reader
}

func dial(addr string) (*clientConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &clientConn{c: c, br: bufio.NewReader(c)}, nil
}

// wireRequest is an HTTP/1.1 POST of a JSON body as one write.
func wireRequest(path string, body []byte) []byte {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: lanbench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))
	return append([]byte(head), body...)
}

// httpReply is one response as the client read it.
type httpReply struct {
	status int
	body   []byte
	err    error
}

// startServer puts the index behind lanserve on a loopback listener and
// replays the trace once closed-loop so the cache reaches its stationary
// mix. traceRing is lanserve.Config.TraceRing: negative keeps tracing off.
func (b *bench) startServer(traceRing int) error {
	ls, err := lanserve.New(lanserve.Config{
		Index: b.idx, Workers: serveWorkers, CacheSize: serveCache, TraceRing: traceRing,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s := &httpServer{lan: ls, hs: &http.Server{Handler: ls}, addr: ln.Addr().String()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.hs.Serve(ln) // returns when stop shuts the server down
	}()
	b.srv = s
	for i := 0; i < serveConns; i++ {
		c, err := dial(s.addr)
		if err != nil {
			return err
		}
		s.conns = append(s.conns, c)
	}
	for _, q := range b.queries {
		body, err := json.Marshal(lanserve.SearchRequest{Query: q, K: topK, Beam: beamWidth})
		if err != nil {
			return err
		}
		s.bodies = append(s.bodies, body)
		s.requests = append(s.requests, wireRequest("/search", body))
	}
	// The draws are pinned: the seed changes what the queries are, not how
	// popular each is or when it is asked. Under replay the hit share hangs
	// on the order of so short a trace, and seeded orders put it anywhere
	// from 0.63 to 0.71 (at 200 requests), which moved ndc_mean and
	// query_p90_ms with it.
	b.draws = newZipf(rand.New(rand.NewSource(pinnedSeed)), len(b.queries), zipfExponent)
	b.trace = b.draws.take(serveTrace)

	// One closed-loop replay of the trace leaves the cache as every later
	// replay will find it.
	_, replies := b.load(b.trace, 0)
	for _, rep := range replies {
		if rep.err != nil || rep.status != http.StatusOK {
			return fmt.Errorf("warm-up request failed: status %d, %v", rep.status, rep.err)
		}
	}
	return nil
}

func (s *httpServer) stop() {
	for _, c := range s.conns {
		c.c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	s.wg.Wait()
}

// send writes one request on the worker's connection and reads the reply,
// within replyLimit. A connection that failed is replaced for the next
// request.
func (s *httpServer) send(worker int, request []byte) httpReply {
	conn := s.conns[worker]
	reply := func() httpReply {
		conn.c.SetDeadline(time.Now().Add(replyLimit))
		if _, err := conn.c.Write(request); err != nil {
			return httpReply{err: err}
		}
		resp, err := http.ReadResponse(conn.br, nil)
		if err != nil {
			return httpReply{err: err}
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		return httpReply{status: resp.StatusCode, body: data, err: err}
	}()
	if reply.err != nil {
		conn.c.Close()
		if fresh, err := dial(s.addr); err == nil {
			s.conns[worker] = fresh
		}
	}
	return reply
}

// load sends one /search per draw at the given rate (0: closed loop) and
// returns each request's timing and reply.
func (b *bench) load(draws []int, rate int) ([]timing, []httpReply) {
	var interval time.Duration
	if rate > 0 {
		interval = time.Second / time.Duration(rate)
	}
	replies := make([]httpReply, len(draws))
	timings := openLoop(wallClock{}, serveConns, len(draws), interval, func(worker, i int) {
		replies[i] = b.srv.send(worker, b.srv.requests[draws[i]])
	})
	return timings, replies
}

// served is a load step after decoding and gating its replies.
type served struct {
	latency []time.Duration      // of each request, from its due time; -1 when it failed
	hit     []time.Duration      // ... of those served from the cache
	miss    []time.Duration      // ... of those that ran a search of their own
	late    []time.Duration      // generator lateness, every request
	ndc     int                  // GED calls the server actually paid
	last    map[int][]lan.Result // pool query -> its latest good reply
	failed  int
}

// ok is the latencies of the good replies.
func (s served) ok() []time.Duration { return fastest([][]time.Duration{s.latency}) }

// gate decodes the replies of one step. A reply fails when the request
// errored (the client's one-second limit included), the status is not 200,
// or the results do not pass the checker.
func (b *bench) gate(draws []int, timings []timing, replies []httpReply, c *checker) served {
	s := served{last: make(map[int][]lan.Result)}
	for i, rep := range replies {
		s.late = append(s.late, timings[i].late())
		var resp lanserve.SearchResponse
		err := rep.err
		if err == nil && rep.status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", rep.status, bytes.TrimSpace(rep.body))
		}
		if err == nil {
			err = json.Unmarshal(rep.body, &resp)
		}
		before := c.failed
		c.reply(b.queries[draws[i]], resp.Results, err)
		if c.failed > before {
			s.failed++
			s.latency = append(s.latency, -1)
			continue
		}
		s.latency = append(s.latency, timings[i].latency())
		switch {
		case resp.Cached:
			s.hit = append(s.hit, timings[i].latency())
		case !resp.Shared:
			s.miss = append(s.miss, timings[i].latency())
			s.ndc += resp.Stats.NDC
		}
		s.last[draws[i]] = resp.Results
	}
	return s
}

func (b *bench) serveChecker() *checker {
	return &checker{metric: b.query.inner, graphOf: func(id int) *graph.Graph {
		if id < 0 || id >= len(b.db) {
			return nil
		}
		return b.db[id]
	}}
}

// servePart is the open loop at the base rate, tracing off: the trace is
// replayed until the window is used up.
func (b *bench) servePart(r *report, t *timed, window time.Duration) {
	c := b.serveChecker()
	start := time.Now()
	for n := max(1, int(float64(serveRate)*window.Seconds()/serveTrace+0.5)); n > 0; n-- {
		timings, replies := b.load(b.trace, serveRate)
		t.elapsed += time.Since(start)
		t.replays = append(t.replays, b.gate(b.trace, timings, replies, c))
		start = time.Now()
	}
	r.absorb(c)
}

// scoreServe scores the replays. The cache meets every replay in the same
// state, so a request is a hit or a miss in all of them alike, and its
// latency is the fastest of its replays (see fastest).
func (b *bench) scoreServe(r *report, t *timed) error {
	latency := make([][]time.Duration, len(t.replays))
	last := make(map[int][]lan.Result)
	answered, ndc := 0, 0
	for i, s := range t.replays {
		latency[i] = s.latency
		answered += len(s.ok())
		ndc += s.ndc
		for q, res := range s.last {
			last[q] = res
		}
	}
	if answered == 0 {
		return errors.New("no request succeeded")
	}
	latencyMetrics(r, fastest(latency))
	r.set("qps", float64(answered)/t.elapsed.Seconds(), answered)
	// GED calls the server paid per request it answered: cache hits and
	// shared flights pay none, so a better cache lowers it.
	r.set("ndc_mean", float64(ndc)/float64(answered), answered)

	c := b.serveChecker()
	// Up to fifty distinct replies (a trace holds about thirty) must equal
	// what the library returns directly.
	compared := 0
	for q, res := range last {
		if compared == 50 {
			break
		}
		direct, _, err := b.idx.Search(b.queries[q], searchOpts)
		c.attempted++
		if err != nil || !sameResults(direct, res) {
			c.fail(fmt.Errorf("server reply for pool query %d differs from Index.Search (%v)", q, err))
		}
		compared++
	}
	r.absorb(c)

	// Recall on the pinned queries, which are also the most requested.
	all, _, err := b.pinnedTruth()
	if err != nil {
		return err
	}
	var got [][]lan.Result
	var truth [][]pg.Result
	for q := 0; q < b.w.recall; q++ {
		if res, ok := last[q]; ok {
			got = append(got, res)
			truth = append(truth, all[q])
		}
	}
	r.set("recall_at_10", recallOf(got, truth), len(got))
	return nil
}

// scrape reads the server's /metrics and returns the named plain counters.
func (b *bench) scrape() map[string]float64 {
	rec := httptest.NewRecorder()
	b.srv.lan.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := make(map[string]float64)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// tracedServe climbs the rate ladder with the server's trace ring on and
// reads the serving layer's own counters before and after; then it times
// the pieces of the hit path alone.
func (b *bench) tracedServe(r *report, window time.Duration) error {
	before := b.scrape()
	c := b.serveChecker()
	maxOK := 0.0
	stepOK := true
	var base served // the step at the timed run's rate
	for _, rate := range ladder {
		draws := b.draws.take(int(float64(rate) * window.Seconds() / float64(len(ladder))))
		timings, replies := b.load(draws, rate)
		s := b.gate(draws, timings, replies, c)
		for j, t := range timings {
			b.tr.add("http.request", 0, j, t.sent, t.done)
		}
		ok := s.ok()
		if len(ok) == 0 {
			return fmt.Errorf("rate %d: no request succeeded, first error: %v", rate, c.firstErr)
		}
		if rate == serveRate {
			base = s
		}
		v := sortedCopy(durationsMS(ok))
		p90 := percentile(v, 90)
		r.set(fmt.Sprintf("lanserve.p50_ms_r%d", rate), percentile(v, 50), len(v))
		r.set(fmt.Sprintf("lanserve.p90_ms_r%d", rate), p90, len(v))
		// A backlog is growing when the generator ends the step later than
		// the latency limit: the two connections never caught up.
		tail := s.late[len(s.late)*9/10:]
		keepsUp := mean(durationsMS(tail)) <= ms(latencyLimit)
		stepOK = stepOK && p90 <= ms(latencyLimit) && float64(s.failed) <= 0.01*float64(len(draws)) && keepsUp
		if stepOK {
			maxOK = float64(rate)
		}
	}
	r.absorb(c)
	after := b.scrape()
	delta := func(name string) float64 { return after[name] - before[name] }
	requests := delta("lanserve_requests_total")
	r.set("lanserve.max_ok_rps", maxOK, len(ladder))
	r.set("lanserve.cache_hit_share", ratio(delta("lanserve_cache_hits_total"), requests), int(requests))
	r.set("lanserve.singleflight_shared_share", ratio(delta("lanserve_singleflight_shared_total"), requests), int(requests))
	r.set("lanserve.rejected_429_share", ratio(delta("lanserve_rejected_total"), requests), int(requests))
	r.set("lanserve.timeout_504_share", ratio(delta("lanserve_timeouts_total"), requests), int(requests))
	r.set("lanserve.loadgen_late_p90_ms", percentile(sortedCopy(durationsMS(base.late)), 90), len(base.late))
	if len(base.hit) == 0 || len(base.miss) == 0 {
		return fmt.Errorf("rate %d saw %d hits and %d misses; the workload needs both", serveRate, len(base.hit), len(base.miss))
	}
	hitP50 := percentile(sortedCopy(durationsMS(base.hit)), 50) * 1000
	r.set("lanserve.hit_p50_us", hitP50, len(base.hit))
	r.set("lanserve.miss_p50_ms", percentile(sortedCopy(durationsMS(base.miss)), 50), len(base.miss))

	// The hit path without TCP: the handler called directly on a cached
	// query. What the loopback round trip adds is the difference.
	const reps = 200
	hot := b.srv.bodies[0]
	start := time.Now()
	for i := 0; i < reps; i++ {
		rec := httptest.NewRecorder()
		b.srv.lan.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(hot)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("direct handler call: status %d", rec.Code)
		}
	}
	handler := us(time.Since(start)) / reps
	r.set("lanserve.handler_hit_us", handler, reps)
	r.set("lanserve.tcp_overhead_us", hitP50-handler, reps)

	// The graph package's share of a request: decode, cache key, encode.
	var decode, hash, encode time.Duration
	for i := 0; i < reps; i++ {
		body := b.srv.bodies[i%len(b.srv.bodies)]
		var req lanserve.SearchRequest
		t0 := time.Now()
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		t1 := time.Now()
		graph.Hash(req.Query, 2)
		t2 := time.Now()
		if _, err := json.Marshal(req.Query); err != nil {
			return err
		}
		decode += t1.Sub(t0)
		hash += t2.Sub(t1)
		encode += time.Since(t2)
	}
	r.set("graph.decode_us", us(decode)/reps, reps)
	r.set("graph.wlhash_us", us(hash)/reps, reps)
	r.set("graph.encode_us", us(encode)/reps, reps)

	return b.storeMetrics(r)
}

// storeMetrics prices the storage tier: snapshot size, opening it into
// RAM, and the same queries answered from the mmap tier and from RAM.
func (b *bench) storeMetrics(r *report) error {
	info, err := os.Stat(b.snap)
	if err != nil {
		return err
	}
	r.set("lanstore.index_bytes", float64(info.Size()), 1)
	start := time.Now()
	ram, err := lan.OpenSnapshot(b.snap, lan.Options{BuildMetric: b.build, QueryMetric: b.query, Workers: 2, Store: lan.StoreRAM})
	if err != nil {
		return err
	}
	defer ram.Close()
	r.set("lanstore.open_ram_ms", ms(time.Since(start)), 1)
	const n = 50
	mmapIdx := b.idx
	mmapWall := sumWall(b.searchLoop(searchOpts, 0, n, 0, nil))
	b.idx = ram
	ramWall := sumWall(b.searchLoop(searchOpts, 0, n, 0, nil))
	b.idx = mmapIdx
	r.set("lanstore.mmap_vs_ram_query_ratio", ratio(float64(mmapWall), float64(ramWall)), n)
	return nil
}

func sumWall(samples []sample) time.Duration {
	var d time.Duration
	for _, s := range samples {
		d += s.wall
	}
	return d
}
