// Command lan-bench regenerates the paper's tables and figures on the
// synthetic dataset simulators.
//
// Usage:
//
//	lan-bench -exp fig5 -scale 0.01 -k 10
//	lan-bench -exp all
//
// Valid experiment ids: tab1, fig5..fig12, all. Rows go to stdout; the
// query workload is drawn from -seed, so a command line names its run.
//
// lan-bench reports the paper's figures, not this repository's
// performance: that is `go run ./benchmark` (benchmark/README.md,
// BENCHMARK.json), the only program a performance number comes from.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lan-bench: ")
	p := experiments.DefaultProtocol()
	var (
		exp    = flag.String("exp", "all", "experiment id: "+strings.Join(experiments.Names(), ", "))
		beams  = flag.String("beams", "", "comma-separated beam sizes (default from protocol)")
		budget = flag.Int("exact-budget", 150, "A* expansion budget of the query GED ensemble (0 = approximations only)")
		data   = flag.String("datasets", "", "comma-separated dataset filter (aids,linux,pubchem,syn; default all)")
	)
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
	if *data != "" {
		for _, d := range strings.Split(*data, ",") {
			p.Datasets = append(p.Datasets, strings.TrimSpace(d))
		}
	}

	fmt.Printf("protocol: scale=%g queries=%d k=%d beams=%v dim=%d epochs=%d seed=%d\n\n",
		p.Scale, p.Queries, p.K, p.Beams, p.Dim, p.TrainEpochs, p.Seed)
	if err := experiments.Run(os.Stdout, *exp, p); err != nil {
		log.Fatal(err)
	}
}
