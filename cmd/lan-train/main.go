// Command lan-train builds and trains a LAN index over a graph database
// file and writes it to disk as a self-contained .lansnap snapshot — the
// database travels inside, so lan-search and lan-serve need nothing else.
//
// Usage:
//
//	lan-train -db aids.txt -queries aids-queries.txt -out aids.lansnap -dim 16 -epochs 10
package main

import (
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
	log.SetPrefix("lan-train: ")
	var (
		dbPath  = flag.String("db", "", "database file (graph text format)")
		qPath   = flag.String("queries", "", "training query workload file")
		outPath = flag.String("out", "index.lansnap", "output index snapshot")
		dim     = flag.Int("dim", 16, "embedding dimension")
		m       = flag.Int("m", 8, "proximity graph degree parameter")
		epochs  = flag.Int("epochs", 10, "training epochs")
		gamma   = flag.Int("gamma-knn", 20, "gamma* covers this many NNs for 90% of training queries")
		workers = flag.Int("workers", 0, "index-build worker goroutines (0 = NumCPU; results are identical for every setting)")
		seed    = flag.Int64("seed", 1, "build seed")
	)
	flag.Parse()
	if *dbPath == "" || *qPath == "" {
		log.Fatal("need -db and -queries")
	}

	db, err := lanio.ReadDatabase(*dbPath)
	if err != nil {
		log.Fatal(err)
	}
	queries, err := lanio.ReadQueries(*qPath)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	idx, err := lanio.BuildIndex(db, queries, lanio.BuildParams{
		Dim: *dim, M: *m, Epochs: *epochs, GammaKNN: *gamma, Workers: *workers, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "built index over %d graphs in %s (gamma* = %.0f)\n",
		idx.Len(), time.Since(start).Round(time.Millisecond), idx.GammaStar())

	if err := idx.SaveSnapshot(*outPath, lan.SnapshotOptions{}); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *outPath)
}
