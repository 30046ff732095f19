package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/graph"
)

func TestTailPercentile(t *testing.T) {
	candidates := []float64{75, 90, 99}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{15, 50},    // nothing has ten samples beyond it
		{40, 75},    // 10 beyond p75
		{99, 75},    // p90 would leave 9
		{100, 90},   // exactly 10 beyond p90
		{120, 90},   // 12 beyond p90, 1 beyond p99
		{1000, 99},  // exactly 10 beyond p99
		{10000, 99}, // never above the highest candidate
	} {
		if got := tailPercentile(c.n, candidates); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 10: 1, 1: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4);
// these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v, %v, want 1, 3", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestFastestPerPosition(t *testing.T) {
	ms := time.Millisecond
	passes := [][]time.Duration{
		{5 * ms, 9 * ms, -1, -1},
		{7 * ms, 2 * ms, 4 * ms, -1},
		{6 * ms, 3 * ms}, // a pass cut short
	}
	// Position 2 failed once and position 3 every time: the first keeps its
	// one good time, the second is dropped.
	want := []time.Duration{5 * ms, 2 * ms, 4 * ms}
	if got := fastest(passes); !reflect.DeepEqual(got, want) {
		t.Errorf("fastest = %v, want %v", got, want)
	}
	if got := passRate(want); math.Abs(got-3/0.011) > 1e-9 {
		t.Errorf("passRate = %v, want 3 operations in 11 ms", got)
	}
}

// fakeClock moves only when the scheduler waits or an operation runs.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) WaitUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	service := []time.Duration{25, 1, 1, 1}
	timings := openLoop(clk, 1, len(service), 10*time.Millisecond, func(_, i int) {
		clk.now = clk.now.Add(service[i] * time.Millisecond)
	})
	// The first operation stalls for 25 ms; the next two were due at 10 and
	// 20 ms and pay for the stall although each takes 1 ms itself.
	want := []struct{ latency, late time.Duration }{{25, 0}, {16, 15}, {7, 6}, {1, 0}}
	for i, w := range want {
		if got := timings[i].latency(); got != w.latency*time.Millisecond {
			t.Errorf("op %d latency = %v, want %v ms", i, got, w.latency)
		}
		if got := timings[i].late(); got != w.late*time.Millisecond {
			t.Errorf("op %d lateness = %v, want %v ms", i, got, w.late)
		}
	}
}

func TestOpenLoopClosedWhenIntervalZero(t *testing.T) {
	ran := make([]bool, 50)
	openLoop(wallClock{}, 4, len(ran), 0, func(_, i int) { ran[i] = true })
	for i, ok := range ran {
		if !ok {
			t.Fatalf("operation %d never ran", i)
		}
	}
}

func TestZipfDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []int {
		return newZipf(rand.New(rand.NewSource(seed)), servePool, zipfExponent).take(2000)
	}
	a, b, c := draw(3), draw(3), draw(4)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different draws")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same draws")
	}
	count := make([]int, servePool)
	for _, r := range a {
		if r < 0 || r >= servePool {
			t.Fatalf("draw %d out of range", r)
		}
		count[r]++
	}
	if count[0] <= count[servePool/2] {
		t.Errorf("rank 0 drawn %d times, rank %d drawn %d times: not skewed", count[0], servePool/2, count[servePool/2])
	}
}

func TestWriteScheduleDeterministicAndValid(t *testing.T) {
	fresh := make([]*graph.Graph, 100)
	for i := range fresh {
		fresh[i] = graph.New(-1)
	}
	const dbLen = 50
	a := writeSchedule(dbLen, fresh, 120, 9)
	b := writeSchedule(dbLen, fresh, 120, 9)
	c := writeSchedule(dbLen, fresh, 120, 10)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	if len(a) != 120 {
		t.Fatalf("%d writes, want 120", len(a))
	}
	live := make(map[int]bool)
	for i := 0; i < dbLen; i++ {
		live[i] = true
	}
	next, inserts := dbLen, 0
	for i, op := range a {
		if op.insert != nil {
			if op.id != next {
				t.Fatalf("insert %d expects id %d, ids must be consecutive from %d", i, op.id, next)
			}
			live[next] = true
			next++
			inserts++
		} else {
			if !live[op.id] {
				t.Fatalf("write %d deletes %d, which is not live", i, op.id)
			}
			delete(live, op.id)
		}
	}
	if deletes := len(a) - inserts; inserts != 2*deletes {
		t.Errorf("%d inserts to %d deletes, want 2:1", inserts, deletes)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "query", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "ged.distance", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "ged.distance", StartNS: 20, EndNS: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "ged.distance", StartNS: 90, EndNS: 120}, // runs past its parent
		{ID: 5, Name: "query", StartNS: 200, EndNS: 260},                  // no children
	}
	self := selfTimes(spans)
	// Children cover 10-50 and 90-100 of the first query: 50 of its 100.
	if got := self["query"]; got != 50+60 {
		t.Errorf("query self time = %d, want 110", got)
	}
	if got := self["ged.distance"]; got != 20+30+30 {
		t.Errorf("ged.distance self time = %d, want 80", got)
	}
}

func TestTracerBeginFinish(t *testing.T) {
	tr := newTracer()
	id := tr.begin("query", 7, tr.t0)
	tr.add("ged.distance", id, 7, tr.t0.Add(time.Millisecond), tr.t0.Add(3*time.Millisecond))
	tr.finish(id, tr.t0.Add(10*time.Millisecond))
	self := selfTimes(tr.spans)
	if self["query"] != 8*time.Millisecond || self["ged.distance"] != 2*time.Millisecond {
		t.Errorf("self times = %v", self)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// emittedNames collects the metric names the harness can emit: the string
// literal (or the Sprintf pattern over the ladder) that every report.set
// and perQuery call in this package passes first.
func emittedNames(t *testing.T) map[string]bool {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			switch f := call.Fun.(type) {
			case *ast.SelectorExpr:
				if f.Sel.Name != "set" {
					return true
				}
			case *ast.Ident:
				if f.Name != "perQuery" {
					return true
				}
			default:
				return true
			}
			switch arg := call.Args[0].(type) {
			case *ast.BasicLit:
				name, _ := strconv.Unquote(arg.Value)
				names[name] = true
			case *ast.CallExpr: // fmt.Sprintf("lanserve.p50_ms_r%d", rate)
				pattern, _ := strconv.Unquote(arg.Args[0].(*ast.BasicLit).Value)
				for _, rate := range ladder {
					names[fmt.Sprintf(pattern, rate)] = true
				}
			case *ast.Ident: // a forwarding helper; its callers pass the literal
			default:
				t.Errorf("metric name is not a literal: %T", arg)
			}
			return true
		})
	}
	return names
}

func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]bool)
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if listed[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		listed[m.Name] = true
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is not made of letters, digits, _ . -", m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	emitted := emittedNames(t)
	for name := range emitted {
		if !listed[name] {
			t.Errorf("harness emits %s, which BENCHMARK.json does not list", name)
		}
	}
	for name := range listed {
		if !emitted[name] {
			t.Errorf("BENCHMARK.json lists %s, which the harness never emits", name)
		}
	}

	var inFile, inCode []string
	for _, w := range spec.Workloads {
		inFile = append(inFile, w.Name)
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is not made of letters, digits, _ . -", w.Name)
		}
	}
	for _, w := range workloads {
		inCode = append(inCode, w.name)
	}
	if !reflect.DeepEqual(inFile, inCode) {
		t.Errorf("workloads: BENCHMARK.json has %v, the harness has %v", inFile, inCode)
	}
}

func TestFinishEmitsExactlyTheListedMetrics(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricSpec{{Name: "setup_s", Unit: "s"}, {Name: "qps", Unit: "1/s"}},
		PerLayer: []metricSpec{{Name: "ged.us_per_call", Unit: "us"}, {Name: "mutable.epochs", Unit: "count"}},
	}
	r := newReport()
	r.attempted = 1
	r.set("setup_s", 1.5, 3)
	if _, err := r.finish(spec, false); err == nil {
		t.Error("a missing end-to-end metric must be an error")
	}
	r.set("qps", 80, 100)
	res, err := r.finish(spec, false)
	if err != nil || len(res.Metrics) != 2 || !res.Correct || res.Metrics["qps"].Unit != "1/s" {
		t.Errorf("finish = %+v, %v", res, err)
	}

	r = newReport()
	r.attempted = 1
	r.set("ged.us_per_call", 20, 10)
	res, err = r.finish(spec, true)
	if err != nil || len(res.Metrics) != 2 || res.Metrics["mutable.epochs"].Value != 0 {
		t.Errorf("a layer the workload does not exercise must read 0: %+v, %v", res, err)
	}
	r.set("typo.metric", 1, 1)
	if _, err := r.finish(spec, true); err == nil {
		t.Error("an unlisted metric must be an error")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "query_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "qps", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		m            metricSpec
		a, b, spread float64
		want         string
	}{
		{lower, 100, 105, 0.02, "unchanged"},
		{lower, 100, 115, 0.02, "regressed"},
		{lower, 100, 85, 0.02, "improved"},
		{lower, 100, 115, 0.2, "unresolved"},
		{higher, 100, 85, 0.02, "regressed"},
		{higher, 100, 115, 0.02, "improved"},
	} {
		if got := verdictOf(c.m, c.a, c.b, c.spread); got != c.want {
			t.Errorf("verdict(%s %v -> %v, spread %v) = %s, want %s", c.m.Name, c.a, c.b, c.spread, got, c.want)
		}
	}
}

func TestCheckerGate(t *testing.T) {
	// Covered end to end by every run; here only the ordering rule, which a
	// run on a correct program never exercises.
	db := make(graph.Database, 20)
	for i := range db {
		db[i] = graph.New(i)
	}
	c := &checker{graphOf: func(id int) *graph.Graph {
		if id < 0 || id >= len(db) {
			return nil
		}
		return db[id]
	}, dead: map[int]bool{19: true}}
	good := make([]lan.Result, topK)
	for i := range good {
		good[i] = lan.Result{ID: i, Dist: float64(i / 2)}
	}
	if err := c.verify(nil, good, false); err != nil {
		t.Errorf("ascending (dist, id) reply rejected: %v", err)
	}
	swapped := append([]lan.Result(nil), good...)
	swapped[0], swapped[1] = swapped[1], swapped[0] // equal distance, ids descending
	if err := c.verify(nil, swapped, false); err == nil {
		t.Error("tie broken by descending id accepted")
	}
	dead := append([]lan.Result(nil), good...)
	dead[topK-1].ID = 19
	if err := c.verify(nil, dead, false); err == nil {
		t.Error("reply holding a deleted graph accepted")
	}
	if err := c.verify(nil, good[:topK-1], false); err == nil {
		t.Error("short reply accepted")
	}
}
