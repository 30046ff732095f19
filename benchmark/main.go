// Command benchmark is the repository's one benchmark: four named
// workloads, end-to-end metrics with regression bounds, and a per-layer
// time budget measured from outside the layers. BENCHMARK.json at the
// repository root declares the workloads and every metric; README.md in
// this directory says why each exists and what it should move.
//
//	go run ./benchmark --workload syn_hung --seed 1 --seconds 12 --trace 0
//	go run ./benchmark -repeat 10 -out set1.json
//	go run ./benchmark -compare set1.json set2.json
//
// One process measures one workload. With --trace 0 it prints every
// end-to-end metric, measured with tracing off; with --trace 1 every
// per-layer metric, measured with the harness's wrappers and spans on. The
// last line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricSpec and benchSpec mirror BENCHMARK.json, which is the one place
// metric names, units, directions and bounds are written down.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// repoRoot is the repository root relative to the working directory: the
// driver and go run start there, go test starts in this directory.
func repoRoot() string {
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		return ".."
	}
	return "."
}

func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run ends with.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// runRecord is one run as kept in an -out file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

type outFile struct {
	Machine map[string]string `json:"machine"`
	Runs    []runRecord       `json:"runs"`
	Spans   []span            `json:"spans,omitempty"`
}

// report collects what one run measured.
type report struct {
	values    map[string]float64
	samples   map[string]int
	attempted int
	failed    int
	problems  []string // correctness-gate violations that are not a failed operation
}

func newReport() *report {
	return &report{values: make(map[string]float64), samples: make(map[string]int)}
}

func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) absorb(c *checker) {
	r.attempted += c.attempted
	r.failed += c.failed
	if c.firstErr != nil {
		r.problem("%d of %d replies failed the gate, first: %v", c.failed, c.attempted, c.firstErr)
	}
}

// finish turns the report into the run's result: exactly the metrics
// BENCHMARK.json lists for this mode. A per-layer metric of a layer the
// workload does not exercise reads 0; an end-to-end metric must be measured.
func (r *report) finish(spec *benchSpec, trace bool) (result, error) {
	want := spec.EndToEnd
	if trace {
		want = spec.PerLayer
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]measured)}
	listed := make(map[string]bool)
	for _, m := range want {
		listed[m.Name] = true
		v, ok := r.values[m.Name]
		if !ok && !trace {
			return res, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = measured{Value: v, Unit: m.Unit}
	}
	for name := range r.values {
		if !listed[name] {
			return res, fmt.Errorf("metric %s is not listed in BENCHMARK.json", name)
		}
	}
	res.Correct = r.failed == 0 && len(r.problems) == 0 && r.attempted > 0
	return res, nil
}

func machine() map[string]string {
	m := map[string]string{
		"cpu":        "unknown",
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				m["cpu"] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				m["commit"] = s.Value
			}
		}
	}
	return m
}

// runOne measures one workload once.
func runOne(spec *benchSpec, w *workload, seed int64, window time.Duration, trace bool) (result, []span, error) {
	tr := newTracer()
	r := newReport()
	var b *bench
	var err error
	steal0, total0 := cpuJiffies()
	defer func() {
		// Stolen time is the one cause of a slow run the guest can see; name
		// it, so that an outlier among the runs has its explanation beside it.
		steal1, total1 := cpuJiffies()
		if share := ratio(steal1-steal0, total1-total0); share > 0.01 {
			fmt.Fprintf(os.Stderr, "benchmark: %s: NOTE: the hypervisor took %.0f%% of this run's CPU time; its timings are inflated\n", w.name, 100*share)
		}
	}()
	if trace {
		if b, err = setup(w, seed, tr, true); err != nil {
			return result{}, nil, err
		}
		defer b.close()
		err = b.tracedRun(r, window)
	} else {
		// Several set-ups, so that setup_s is a median; each serves a part
		// of the measured window (see timed).
		var setups []float64
		var parts timed
		for i := 0; i < setupRuns; i++ {
			if b != nil {
				b.close()
			}
			if b, err = setup(w, seed, tr, false); err != nil {
				return result{}, nil, err
			}
			setups = append(setups, b.setupTime().Seconds())
			b.timedPart(r, &parts, window/setupRuns)
		}
		defer b.close()
		r.set("setup_s", median(setups), len(setups))
		err = b.timedScore(r, &parts)
	}
	if err != nil {
		return result{}, nil, err
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: INCORRECT: %s\n", w.name, p)
	}
	names := make([]string, 0, len(r.values))
	for name := range r.values {
		names = append(names, name)
	}
	sort.Strings(names)
	res, err := r.finish(spec, trace)
	if err != nil {
		return res, nil, err
	}
	for _, name := range names {
		fmt.Printf("%s %s %.6g %s n=%d\n", w.name, name, r.values[name], res.Metrics[name].Unit, r.samples[name])
	}
	return res, tr.spans, nil
}

func writeOut(path string, f outFile) error {
	if path == "" {
		return nil
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// repeat runs every workload (or the one named) n times in processes of
// its own, each with another seed — what the driver does — and prints each
// end-to-end metric's spread against its bound.
func repeat(spec *benchSpec, only string, n int, seed int64, seconds float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := outFile{Machine: machine()}
	wide := 0
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		first := len(file.Runs)
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(s),
				"--seconds", fmt.Sprint(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			rec := runRecord{Workload: w.name, Seed: s}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.result); err != nil {
				return fmt.Errorf("%s seed %d: last line is not a result: %w", w.name, s, err)
			}
			if !rec.Correct {
				return fmt.Errorf("%s seed %d: run was not correct", w.name, s)
			}
			file.Runs = append(file.Runs, rec)
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", w.name, s)
		}
		values := timedValues(file.Runs[first:])[w.name]
		for _, m := range spec.EndToEnd {
			v := values[m.Name]
			verdict := "ok"
			// setup_s is exempt from the spread rule: each value is already a
			// median of several set-ups.
			if sp := spread(v); sp > m.Bound && m.Name != "setup_s" {
				verdict = "WIDE"
				wide++
			}
			fmt.Printf("%s %s median %.6g %s spread %.4f bound %.2f %s n=%d\n",
				w.name, m.Name, median(v), m.Unit, spread(v), m.Bound, verdict, len(v))
		}
	}
	if err := writeOut(out, file); err != nil {
		return err
	}
	if wide > 0 {
		return fmt.Errorf("%d metrics spread wider than their bound", wide)
	}
	return nil
}

// timedValues groups the timed runs' metric values by workload and metric.
func timedValues(runs []runRecord) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, run := range runs {
		if run.Trace != 0 {
			continue
		}
		if out[run.Workload] == nil {
			out[run.Workload] = make(map[string][]float64)
		}
		for name, m := range run.Metrics {
			out[run.Workload][name] = append(out[run.Workload][name], m.Value)
		}
	}
	return out
}

// compare prints, per workload and end-to-end metric, both files' medians,
// the change, the bound and a verdict. A metric whose spread within either
// file exceeds its bound cannot be resolved by these runs.
func compare(spec *benchSpec, pathA, pathB string) error {
	load := func(path string) (map[string]map[string][]float64, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f outFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return timedValues(f.Runs), nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	regressed := 0
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[w.name][m.Name], b[w.name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			verdict := verdictOf(m, ma, mb, max(spread(va), spread(vb)))
			if verdict == "regressed" {
				regressed++
			}
			fmt.Printf("%s %s a=%.6g b=%.6g %s delta %+.4f bound %.2f %s\n",
				w.name, m.Name, ma, mb, m.Unit, ratio(mb-ma, ma), m.Bound, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}

// verdictOf judges b against a: worse by more than the bound is regressed,
// better by more than the bound is improved, and when the runs themselves
// spread wider than the bound neither can be told from noise.
func verdictOf(m metricSpec, a, b, spread float64) string {
	worse := ratio(b-a, a)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread > m.Bound && m.Name != "setup_s":
		return "unresolved"
	case worse > m.Bound:
		return "regressed"
	case worse < -m.Bound:
		return "improved"
	}
	return "unchanged"
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	repeat   int
	compare  bool
	pinTruth bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (empty: every workload once, like -repeat 1)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the query set, the zipf draws and the write schedule")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, tracing on")
	flag.StringVar(&o.out, "out", "", "write the results (and, for one traced run, the harness spans) to this JSON file")
	flag.IntVar(&o.repeat, "repeat", 0, "run each workload this many times with consecutive seeds and print every metric's spread against its bound")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files: go run ./benchmark -compare a.json b.json")
	flag.BoolVar(&o.pinTruth, "pin-truth", false, "brute-force the pinned queries' truth and write testdata/truth.json")
	flag.Parse()
	if err := o.run(flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func (o options) run(args []string) error {
	if o.pinTruth {
		return pinTruth()
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if o.compare {
		if len(args) != 2 {
			return errors.New("-compare takes two -out files")
		}
		return compare(spec, args[0], args[1])
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.repeat > 0 || o.workload == "" {
		return repeat(spec, o.workload, max(o.repeat, 1), o.seed, o.seconds, o.out)
	}
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	mach := machine()
	fmt.Fprintf(os.Stderr, "benchmark: %s seed %d on %s, nproc %s, GOMAXPROCS %s, %s, commit %s\n",
		w.name, o.seed, mach["cpu"], mach["nproc"], mach["gomaxprocs"], mach["go"], mach["commit"])
	window := time.Duration(o.seconds * float64(time.Second))
	res, spans, err := runOne(spec, w, o.seed, window, o.trace == 1)
	if err != nil {
		return err
	}
	rec := runRecord{Workload: w.name, Seed: o.seed, Trace: o.trace, result: res}
	if err := writeOut(o.out, outFile{Machine: mach, Runs: []runRecord{rec}, Spans: spans}); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("outputs were not correct")
	}
	return nil
}
