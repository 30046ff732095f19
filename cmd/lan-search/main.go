// Command lan-search answers k-ANN queries against a trained LAN index.
//
// Usage:
//
//	lan-search -index aids.lansnap -queries test-queries.txt -k 10 -beam 32
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/lanio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lan-search: ")
	var (
		idxPath = flag.String("index", "", "index snapshot from lan-train")
		qPath   = flag.String("queries", "", "query file")
		k       = flag.Int("k", 10, "neighbors per query")
		beam    = flag.Int("beam", 0, "candidate pool size (default k)")
		routing = flag.String("routing", "lan", "routing: lan, baseline, oracle (ranks by the index's build metric, not necessarily the query metric)")
		initial = flag.String("initial", "lan", "initial node: lan, hnsw, rand")
		trace   = flag.Bool("trace", false, "print a per-query routing trace (JSON, one line per query) to stderr")
	)
	flag.Parse()
	if *idxPath == "" || *qPath == "" {
		log.Fatal("need -index and -queries")
	}

	idx, err := lan.OpenSnapshot(*idxPath, lan.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()
	queries, err := lanio.ReadQueries(*qPath)
	if err != nil {
		log.Fatal(err)
	}

	so := lan.SearchOptions{K: *k, Beam: *beam}
	switch *routing {
	case "lan":
		so.Routing = lan.LANRoute
	case "baseline":
		so.Routing = lan.BaselineRoute
	case "oracle":
		so.Routing = lan.OracleRoute
	default:
		log.Fatalf("unknown -routing %q", *routing)
	}
	switch *initial {
	case "lan":
		so.Initial = lan.LANIS
	case "hnsw":
		so.Initial = lan.HNSWIS
	case "rand":
		so.Initial = lan.RandIS
	default:
		log.Fatalf("unknown -initial %q", *initial)
	}

	var totalNDC int
	start := time.Now()
	for qi, q := range queries {
		ctx := context.Background()
		var qt *lan.Trace
		if *trace {
			qt = lan.NewTrace(fmt.Sprintf("q%d", qi))
			ctx = lan.WithTrace(ctx, qt)
		}
		res, stats, err := idx.SearchContext(ctx, q, so)
		if err != nil {
			log.Fatal(err)
		}
		if qt != nil {
			if data, jerr := qt.JSON(); jerr == nil {
				fmt.Fprintf(os.Stderr, "%s\n", data)
			}
		}
		totalNDC += stats.NDC
		fmt.Printf("query %d (n=%d, m=%d): ", qi, q.N(), q.M())
		for _, r := range res {
			fmt.Printf("%d:%.0f ", r.ID, r.Dist)
		}
		fmt.Printf("[ndc=%d %s]\n", stats.NDC, stats.Total.Round(time.Microsecond))
	}
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "%d queries in %s (%.2f QPS, avg NDC %.1f)\n",
		len(queries), elapsed.Round(time.Millisecond),
		float64(len(queries))/elapsed.Seconds(),
		float64(totalNDC)/float64(len(queries)))
}
