// Command lan-trace replays query traces exported by lan-serve
// (-trace-dir) and prints an offline analysis: per-stage latency and NDC
// percentiles, γ-step and opened-vs-ranked distributions, and the span
// trees of the slowest queries.
//
// Usage:
//
//	lan-trace -dir traces/             # a segment directory
//	lan-trace traces/traces-000000.jsonl
//	lan-trace -dir traces/ -slowest 5
//
// Segment files carry a versioned header line ({"format":"lan.trace",...});
// a truncated final record — a crash mid-write — is skipped and counted,
// never an error. Bare positional files without the header are read as
// plain trace JSONL (the lan-search -trace stderr format).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"github.com/lansearch/lan/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lan-trace: ")
	var (
		dir     = flag.String("dir", "", "trace segment directory to replay")
		slowest = flag.Int("slowest", 3, "print the span trees of the N slowest traces (0 disables)")
	)
	flag.Parse()
	if *dir == "" && flag.NArg() == 0 {
		log.Fatal("need -dir or segment files as arguments")
	}

	var traces []*obs.Trace
	var stats obs.ReplayStats
	collect := func(t *obs.Trace) error { traces = append(traces, t); return nil }
	if *dir != "" {
		s, err := obs.ReadSegments(*dir, collect)
		if err != nil {
			log.Fatal(err)
		}
		stats = s
	}
	for _, path := range flag.Args() {
		s, err := readFile(path, collect)
		if err != nil {
			log.Fatal(err)
		}
		stats.Segments += s.Segments
		stats.Traces += s.Traces
		stats.Truncated += s.Truncated
	}
	if err := summarize(os.Stdout, traces, stats, *slowest); err != nil {
		log.Fatal(err)
	}
}

// readFile replays one file: a headered segment via the crash-tolerant
// reader, a bare trace-JSONL file (lan-search -trace output) line by line.
func readFile(path string, fn func(*obs.Trace) error) (obs.ReplayStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return obs.ReplayStats{}, err
	}
	first, err := bufio.NewReader(f).ReadBytes('\n')
	f.Close()
	headered := err == nil && strings.Contains(string(first), `"format"`)
	if headered {
		return obs.ReadSegmentFile(path, fn)
	}
	stats := obs.ReplayStats{Segments: 1}
	g, err := os.Open(path)
	if err != nil {
		return stats, err
	}
	defer g.Close()
	sc := bufio.NewScanner(g)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		t := new(obs.Trace)
		if err := json.Unmarshal([]byte(line), t); err != nil {
			return stats, fmt.Errorf("%s: %v", path, err)
		}
		stats.Traces++
		if err := fn(t); err != nil {
			return stats, err
		}
	}
	return stats, sc.Err()
}

// stageAgg accumulates one span name's samples across all traces.
type stageAgg struct {
	us    []float64
	ndc   []float64
	n     int // summed batch sizes (embed neighbors, fetched graphs)
	count int
}

// summarize prints the offline analysis of the replayed traces.
func summarize(w io.Writer, traces []*obs.Trace, stats obs.ReplayStats, slowest int) error {
	fmt.Fprintf(w, "traces: %d  segments: %d  truncated tails skipped: %d\n",
		len(traces), stats.Segments, stats.Truncated)
	if len(traces) == 0 {
		return nil
	}

	var totalUS, totalNDC, gammaSteps, openedFrac []float64
	stages := map[string]*stageAgg{}
	var order []string
	var walk func(spans []*obs.Span)
	walk = func(spans []*obs.Span) {
		for _, s := range spans {
			agg := stages[s.Name]
			if agg == nil {
				agg = &stageAgg{}
				stages[s.Name] = agg
				order = append(order, s.Name)
			}
			agg.us = append(agg.us, float64(s.US))
			agg.ndc = append(agg.ndc, float64(s.NDC))
			agg.n += s.N
			agg.count++
			walk(s.Children)
		}
	}
	for _, t := range traces {
		totalUS = append(totalUS, float64(t.TotalUS))
		totalNDC = append(totalNDC, float64(t.NDC))
		gammaSteps = append(gammaSteps, float64(len(t.Gammas)))
		var ranked, opened int
		for _, st := range t.Steps {
			ranked += st.Ranked
			opened += st.Opened
		}
		if ranked > 0 {
			openedFrac = append(openedFrac, float64(opened)/float64(ranked))
		}
		walk(t.Spans)
	}

	fmt.Fprintf(w, "total:   us %s   ndc %s\n", pcts(totalUS, "%.0f"), pcts(totalNDC, "%.0f"))
	fmt.Fprintf(w, "gammas:  steps %s\n", pcts(gammaSteps, "%.0f"))
	if len(openedFrac) > 0 {
		fmt.Fprintf(w, "opened/ranked: %s  (fraction of the neighbors handed to the ranker that were opened)\n",
			pcts(openedFrac, "%.2f"))
	}

	fmt.Fprintln(w, "stages:")
	for _, name := range order {
		a := stages[name]
		line := fmt.Sprintf("  %-12s n=%-6d us %s   ndc %s", name, a.count, pcts(a.us, "%.0f"), pcts(a.ndc, "%.0f"))
		if a.n > 0 {
			line += fmt.Sprintf("   batch_total=%d", a.n)
		}
		fmt.Fprintln(w, line)
	}

	if slowest > 0 {
		byTotal := append([]*obs.Trace(nil), traces...)
		sort.SliceStable(byTotal, func(i, j int) bool { return byTotal[i].TotalUS > byTotal[j].TotalUS })
		if slowest > len(byTotal) {
			slowest = len(byTotal)
		}
		fmt.Fprintf(w, "slowest %d:\n", slowest)
		for _, t := range byTotal[:slowest] {
			fmt.Fprintf(w, "  %s  total=%dus  ndc=%d  steps=%d  results=%d\n",
				t.QueryID, t.TotalUS, t.NDC, len(t.Steps), t.Results)
			printSpans(w, t.Spans, "    ")
		}
	}
	return nil
}

// printSpans renders a span forest as an indented tree.
func printSpans(w io.Writer, spans []*obs.Span, indent string) {
	for _, s := range spans {
		line := fmt.Sprintf("%s%s  +%dus  %dus", indent, s.Name, s.StartUS, s.US)
		if s.NDC > 0 {
			line += fmt.Sprintf("  ndc=%d", s.NDC)
		}
		if s.N > 0 {
			line += fmt.Sprintf("  n=%d", s.N)
		}
		fmt.Fprintln(w, line)
		printSpans(w, s.Children, indent+"  ")
	}
}

// pcts formats the p50/p90/p99 of xs with the given verb.
func pcts(xs []float64, verb string) string {
	if len(xs) == 0 {
		return "-"
	}
	f := func(q float64) string { return fmt.Sprintf(verb, percentile(xs, q)) }
	return fmt.Sprintf("p50=%s p90=%s p99=%s", f(0.5), f(0.9), f(0.99))
}

// percentile returns the nearest-rank q-quantile of xs, input unmodified.
func percentile(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(q*float64(len(sorted))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
