// Scalability: sharded search over a growing database (Sec. VII-D).
//
// The paper scales to a million graphs by splitting the database into
// equal-size shards and running the k-ANN search on each shard
// sequentially, merging the per-shard answers. This example builds one
// LAN index per shard of a SYN-style database at increasing sizes and
// shows query time growing linearly with the data, which is the property
// Fig. 9 reports.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/graph"
)

func main() {
	log.SetFlags(0)

	gen := graph.NewGenerator(404)
	labels := []string{"L0", "L1", "L2", "L3", "L4"}

	makeDB := func(n int) graph.Database {
		var gs []*graph.Graph
		for c := 0; len(gs) < n; c++ {
			seed := gen.RandomConnected(8+c%6, 14+c%6, labels, 0.1)
			gs = append(gs, seed)
			for i := 1; i < 12 && len(gs) < n; i++ {
				gs = append(gs, gen.Mutate(seed, 1+i%3, labels))
			}
		}
		return graph.NewDatabase(gs)
	}

	const shardSize = 120
	fmt.Printf("%8s %8s %14s %10s\n", "graphs", "shards", "query time", "k-NN GED")
	for _, scale := range []int{120, 240, 360, 480} {
		db := makeDB(scale)

		// Shard and index each shard independently (this is also how the
		// index parallelizes across machines).
		var indexes []*lan.Index
		for start := 0; start < len(db); start += shardSize {
			end := start + shardSize
			if end > len(db) {
				end = len(db)
			}
			var part []*graph.Graph
			for _, g := range db[start:end] {
				part = append(part, g.Clone())
			}
			shard := graph.NewDatabase(part)
			var train []*graph.Graph
			for i := 0; i < 16; i++ {
				train = append(train, gen.Mutate(shard[(i*7)%len(shard)], i%3, labels))
			}
			idx, err := lan.Build(shard, train, lan.Options{Dim: 10, Epochs: 3, GammaKNN: 8, Seed: int64(start)})
			if err != nil {
				log.Fatal(err)
			}
			indexes = append(indexes, idx)
		}

		// One query, searched on every shard sequentially; answers merged.
		query := gen.Mutate(db[scale/2], 2, labels)
		start := time.Now()
		type hit struct {
			shard, id int
			dist      float64
		}
		var all []hit
		for si, idx := range indexes {
			res, _, err := idx.Search(query, lan.SearchOptions{K: 5, Beam: 16})
			if err != nil {
				log.Fatal(err)
			}
			for _, r := range res {
				all = append(all, hit{si, r.ID, r.Dist})
			}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].dist < all[j].dist {
				return true
			}
			if all[i].dist > all[j].dist {
				return false
			}
			if all[i].shard != all[j].shard {
				return all[i].shard < all[j].shard
			}
			return all[i].id < all[j].id
		})
		elapsed := time.Since(start)
		fmt.Printf("%8d %8d %14s %10.0f\n", scale, len(indexes), elapsed.Round(time.Microsecond), all[0].dist)
	}
	fmt.Println("\nquery time grows linearly with the shard count — the paper's Fig. 9 behavior.")
}
