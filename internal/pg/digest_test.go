package pg_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/internal/pg"
)

// hnswDigest hashes everything a built HNSW routes on: the base adjacency,
// the upper layers (keys in ascending order), the levels and the entry.
func hnswDigest(h *pg.HNSW) string {
	sum := sha256.New()
	put := func(v int) { _ = binary.Write(sum, binary.LittleEndian, int64(v)) }
	putList := func(ns []int) {
		put(len(ns))
		for _, v := range ns {
			put(v)
		}
	}
	put(len(h.PG.Adj))
	for _, ns := range h.PG.Adj {
		putList(ns)
	}
	put(len(h.Upper))
	for _, layer := range h.Upper {
		keys := make([]int, 0, len(layer))
		for k := range layer {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		put(len(keys))
		for _, k := range keys {
			put(k)
			putList(layer[k])
		}
	}
	putList(h.Level)
	put(h.Entry)
	return hex.EncodeToString(sum.Sum(nil))
}

// TestBenchmarkGraphsPinned pins the proximity graphs the benchmark's
// workloads route on — AIDS(0.002) under the ensemble build metric and
// SYN(0.00064) under Hungarian, with the benchmark's M, beam and seed — at
// one worker and at two. A change to insertion, neighbour selection,
// connectivity repair or the worker pool that moves a single edge fails
// here before it moves a benchmark answer.
func TestBenchmarkGraphsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two benchmark-sized indexes")
	}
	cases := []struct {
		name   string
		spec   dataset.Spec
		metric ged.Metric
		want   string
	}{
		{"aids_ensemble", dataset.AIDS(0.002), ged.Ensemble{BeamWidth: 2},
			"2cbc024d180ee783681b75fe812b78400a199a4e6e3d12f730c2717697fd9e06"},
		{"syn_hungarian", dataset.SYN(0.00064), nil,
			"5e7242104d80466c883f6acab850c8b64bb6834461c90e6111ea3ece0b2dd949"},
	}
	for _, c := range cases {
		db := c.spec.Generate()
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				h, err := pg.Build(db, pg.BuildConfig{M: 6, EfConstruction: 12, Metric: c.metric, Seed: 1, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got := hnswDigest(h); got != c.want {
					t.Fatalf("digest %s, want %s", got, c.want)
				}
			})
		}
	}
}
