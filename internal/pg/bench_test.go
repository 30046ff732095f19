package pg

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// Build benchmarks: sequential vs pooled construction over the clustered
// generator database. On multi-core hardware the Workers>1 runs show the
// candidate-beam GED fan-out; on a single core they bound the pool's
// overhead (the built index is identical either way).
func BenchmarkBuild(b *testing.B) {
	db := clusteredDB(1, 8, 8)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Build(db, BuildConfig{M: 6, EfConstruction: 16, Seed: 1, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sortResize is the pre-quickselect Resize: full sort, then truncate. It
// is the semantic reference for BenchmarkPoolResize and the equivalence
// test below.
func (p *Pool) sortResize(b int) {
	sort.Slice(p.items, func(i, j int) bool { return p.less(p.items[i], p.items[j]) })
	if len(p.items) > b {
		for _, c := range p.items[b:] {
			delete(p.inW, c.ID)
		}
		p.items = p.items[:b]
	}
}

// fillPool populates a pool the way one beam exploration step does: the
// surviving b candidates plus one expanded node's neighbor fan-in.
func fillPool(rng *rand.Rand, b, extra int) *Pool {
	p := NewPool(b, nil)
	for len(p.items) < b+extra {
		id := rng.Intn(10 * (b + extra))
		p.Add(id, float64(rng.Intn(12)))
		if rng.Intn(3) == 0 {
			p.MarkExplored(id)
		}
	}
	return p
}

func TestResizeMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		b := 1 + rng.Intn(24)
		extra := rng.Intn(32)
		seed := rng.Int63()
		quick := fillPool(rand.New(rand.NewSource(seed)), b, extra)
		ref := fillPool(rand.New(rand.NewSource(seed)), b, extra)
		quick.Resize(b)
		ref.sortResize(b)
		// The kept set is unique (less is a strict total order), so both
		// must retain exactly the same candidates and membership.
		if len(quick.items) != len(ref.items) {
			t.Fatalf("trial %d: kept %d vs %d", trial, len(quick.items), len(ref.items))
		}
		for _, c := range ref.items {
			if !quick.inW[c.ID] {
				t.Fatalf("trial %d: candidate %d kept by reference, dropped by quickselect", trial, c.ID)
			}
		}
		if len(quick.inW) != len(ref.inW) {
			t.Fatalf("trial %d: membership %d vs %d", trial, len(quick.inW), len(ref.inW))
		}
	}
}

// TestResizeAllocs pins that Resize, which runs after every exploration
// step, allocates nothing: refilling a warmed pool with the same candidates
// and shrinking it back must not touch the heap.
func TestResizeAllocs(t *testing.T) {
	const b = 16
	p := fillPool(rand.New(rand.NewSource(3)), b, 12)
	full := append([]Candidate(nil), p.items...)
	refill := func() {
		p.items = append(p.items[:0], full...)
		for _, c := range full {
			p.inW[c.ID] = true
		}
	}
	if n := testing.AllocsPerRun(100, func() { refill(); p.Resize(b) }); n != 0 {
		t.Fatalf("refill+Resize allocates %v times, want 0", n)
	}
	if len(p.items) != b || len(p.inW) != b {
		t.Fatalf("Resize kept %d items, %d members; want %d", len(p.items), len(p.inW), b)
	}
}

// Resize benchmarks at serving beam widths: each iteration rebuilds the
// pool state one exploration step sees (b survivors + a neighbor fan-in of
// 2M=12) and shrinks it back to b.
func BenchmarkPoolResize(b *testing.B) {
	for _, width := range []int{8, 16, 64} {
		for _, impl := range []string{"quickselect", "sort"} {
			b.Run(fmt.Sprintf("b=%d/%s", width, impl), func(b *testing.B) {
				rng := rand.New(rand.NewSource(7))
				pools := make([]*Pool, 64)
				for i := range pools {
					pools[i] = fillPool(rng, width, 12)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Copy a prebuilt pool (items and membership both shrink
					// during Resize) so the timed loop measures only the
					// resize itself; the copy cost is identical for both
					// implementations.
					src := pools[i%len(pools)]
					inW := make(map[int]bool, len(src.inW))
					for id := range src.inW {
						inW[id] = true
					}
					p := &Pool{items: append([]Candidate(nil), src.items...),
						inW: inW, exploredSeq: src.exploredSeq}
					if impl == "quickselect" {
						p.Resize(width)
					} else {
						p.sortResize(width)
					}
				}
			})
		}
	}
}
