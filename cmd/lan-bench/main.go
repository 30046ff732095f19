// Command lan-bench regenerates the paper's tables and figures on the
// synthetic dataset simulators.
//
// Usage:
//
//	lan-bench -exp fig5 -scale 0.01 -k 10
//	lan-bench -exp all
//
// Valid experiment ids: tab1, fig5..fig12, scal (storage-tier
// scalability sweep: RAM vs mmap vs quantized snapshots), all.
//
// By default the query workloads come from the pinned per-dataset query
// sets in testdata/bench_queries.json, so recall and latency numbers are
// comparable across commits (scripts/bench-diff reports the deltas);
// -queryset points at a different set, and an explicit -queries (or
// -queryset off) samples a fresh workload instead. -store mmap routes
// every query measurement through a memory-mapped snapshot of the built
// index.
//
// Alongside the human-readable rows, lan-bench writes a machine-readable
// summary (recall@k, mean/median NDC split per routing stage, prune-rate
// and γ-step means, per-query latency percentiles, build time and a
// process-wide routing-metrics snapshot per dataset/beam) to
// BENCH_<timestamp>.json; -json sets an explicit path, -json off disables
// it. -trace prints one sample routing trace per dataset to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lan-bench: ")
	p := experiments.DefaultProtocol()
	var (
		exp      = flag.String("exp", "all", "experiment id: "+strings.Join(experiments.Names(), ", "))
		beams    = flag.String("beams", "", "comma-separated beam sizes (default from protocol)")
		budget   = flag.Int("exact-budget", 150, "A* expansion budget of the query GED ensemble (0 = approximations only)")
		data     = flag.String("datasets", "", "comma-separated dataset filter (aids,linux,pubchem,syn; default all)")
		jsonPath = flag.String("json", "", `benchmark summary path ("" = BENCH_<timestamp>.json, "off" disables)`)
		trace    = flag.Bool("trace", false, "print one sample routing trace per dataset (JSON lines) to stderr")
		queryset = flag.String("queryset", "testdata/bench_queries.json", `pinned per-dataset query sets ("off" samples fresh; explicit -queries also samples fresh)`)
	)
	flag.StringVar(&p.Store, "store", "", `storage tier for query measurements: "ram" (default: serve the built engine) or "mmap" (snapshot and reopen memory-mapped)`)
	flag.StringVar(&p.TraceDir, "trace-dir", "", "run the trace-overhead leg, exporting per-query traces as JSONL segments under this directory (empty disables)")
	flag.Float64Var(&p.TraceSample, "trace-sample", 1.0, "exporter sampling fraction for the traced leg (1 = export everything)")
	flag.Float64Var(&p.Scale, "scale", p.Scale, "dataset scale relative to Table I")
	flag.IntVar(&p.Queries, "queries", p.Queries, "query workload size")
	flag.IntVar(&p.K, "k", p.K, "answers per query")
	flag.IntVar(&p.Dim, "dim", p.Dim, "embedding dimension")
	flag.IntVar(&p.TrainEpochs, "epochs", p.TrainEpochs, "training epochs")
	flag.IntVar(&p.Workers, "workers", p.Workers, "index-build worker goroutines (0 = NumCPU; results are identical for every setting)")
	flag.Int64Var(&p.Seed, "seed", p.Seed, "seed")
	flag.Parse()

	if *beams != "" {
		p.Beams = nil
		for _, f := range strings.Split(*beams, ",") {
			b, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || b <= 0 {
				log.Fatalf("bad -beams entry %q", f)
			}
			p.Beams = append(p.Beams, b)
		}
	}
	p.QueryMetric = ged.Ensemble{ExactBudget: *budget, BeamWidth: 4}
	if p.Store != "" && p.Store != "ram" && p.Store != "mmap" {
		log.Fatalf("bad -store %q (want ram or mmap)", p.Store)
	}
	// Pinned query sets regenerate the same workload run after run, which
	// is what makes BENCH json files diffable across commits. An explicit
	// -queries asks for a different workload size, so it falls back to
	// fresh sampling (the pinned sets have a fixed size).
	queriesFlagSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "queries" {
			queriesFlagSet = true
		}
	})
	if *queryset != "off" && !queriesFlagSet {
		if buf, err := os.ReadFile(*queryset); err == nil {
			if err := json.Unmarshal(buf, &p.QuerySets); err != nil {
				log.Fatalf("bad query set %s: %v", *queryset, err)
			}
		} else if *queryset != "testdata/bench_queries.json" {
			// The default path is best-effort (absent outside the repo
			// checkout); an explicit one must exist.
			log.Fatalf("-queryset %s: %v", *queryset, err)
		}
	}
	if *data != "" {
		for _, d := range strings.Split(*data, ",") {
			p.Datasets = append(p.Datasets, strings.TrimSpace(d))
		}
	}

	fmt.Printf("protocol: scale=%g queries=%d k=%d beams=%v dim=%d epochs=%d seed=%d\n\n",
		p.Scale, p.Queries, p.K, p.Beams, p.Dim, p.TrainEpochs, p.Seed)
	cache := experiments.NewEnvCache()
	if err := experiments.RunCached(os.Stdout, *exp, p, cache); err != nil {
		log.Fatal(err)
	}

	if *trace {
		if err := experiments.TraceSamples(p, cache, os.Stderr); err != nil {
			log.Fatal(err)
		}
	}

	if *jsonPath == "off" {
		return
	}
	rep, err := experiments.Bench(p, cache) // reuses engines the figures built
	if err != nil {
		log.Fatal(err)
	}
	rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	path := *jsonPath
	if path == "" {
		path = "BENCH_" + time.Now().UTC().Format("20060102T150405") + ".json"
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote benchmark summary to %s\n", path)
}
