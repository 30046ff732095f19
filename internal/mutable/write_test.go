package mutable

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/core"
	"github.com/lansearch/lan/internal/pg"
)

// hnswDigest hashes everything a search routes on: the base adjacency,
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

// writeSequence applies one fixed mix of 24 writes and a Compact: sixteen
// inserts cycling through the fixture's queries, a delete after every
// second insert — the HNSW entry first, then the graph just inserted,
// then original graphs spread over the id space — and calls after once
// behind every applied write.
func writeSequence(t *testing.T, x *Index, after func()) {
	t.Helper()
	_, _, _ = smallEngine(t) // the fixture's queries
	pool := append(append([]*graph.Graph(nil), fixture.train...), fixture.test...)
	for i := 0; i < 16; i++ {
		id, err := x.Insert(pool[i%len(pool)])
		if err != nil {
			t.Fatal(err)
		}
		after()
		if i%2 == 0 {
			continue
		}
		victim := (8*i + 3) % x.Total()
		switch i {
		case 1:
			victim = x.eng.Index.Entry
		case 5:
			victim = id
		}
		for x.dead[victim] {
			victim = (victim + 1) % x.Total()
		}
		if err := x.Delete(victim); err != nil {
			t.Fatal(err)
		}
		after()
	}
	if n, err := x.Compact(); err != nil || n != 8 {
		t.Fatalf("Compact = (%d, %v); want (8, nil)", n, err)
	}
	after()
}

// TestWriteSequencePinned pins the proximity graph the write sequence
// leaves. The digest was taken when the edge repair ran on a background
// goroutine and every write was followed by a drain of its queue; plain
// writes, which repair before they return, must leave the same graph.
func TestWriteSequencePinned(t *testing.T) {
	x, _, _ := newIndex(t)
	writeSequence(t, x, func() {})
	const want = "f13f7314bc8c32faf09048c688c0ca2e4a68a32729b38eedf3a38f0fd1d2e7f0"
	if got := hnswDigest(x.Snapshot().Engine.Index); got != want {
		t.Fatalf("digest %s, want %s", got, want)
	}
	if err := x.eng.Index.PG.Validate(); err != nil {
		t.Fatalf("Validate after the write sequence: %v", err)
	}
}

// TestEachWriteMovesEpochByOne pins the publication rule: every applied
// Insert and Delete moves the epoch by exactly one — its repair included —
// a Compact that detaches moves it by one, and nothing moves it between
// writes.
func TestEachWriteMovesEpochByOne(t *testing.T) {
	x, _, test := newIndex(t)
	step := func(what string, write func() error) {
		t.Helper()
		before := x.Epoch()
		if err := write(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := x.Epoch(); got != before+1 {
			t.Fatalf("%s moved the epoch %d -> %d; want +1", what, before, got)
		}
	}
	for _, g := range test {
		step("Insert", func() error { _, err := x.Insert(g); return err })
	}
	step("Delete", func() error { return x.Delete(0) })
	step("Delete", func() error { return x.Delete(x.Total() - 1) })
	step("Compact", func() error {
		n, err := x.Compact()
		if err == nil && n != 2 {
			t.Fatalf("Compact detached %d; want 2", n)
		}
		return err
	})
	if epoch := x.Snapshot().Epoch; epoch != uint64(len(test)+3) {
		t.Fatalf("epoch %d after %d writes", epoch, len(test)+3)
	}
	if err := x.eng.Index.PG.Validate(); err != nil {
		t.Fatalf("Validate after writes: %v", err)
	}
}

// readerSearches bounds each reader, so four of them share a small
// machine with the writer instead of starving it.
const readerSearches = 8

// observed is one search a reader ran: the epoch of the snapshot it
// pinned, the query and what came back.
type observed struct {
	epoch uint64
	query int
	res   []pg.Result
	ndc   int
}

// TestWritesDeterministicUnderReaders runs the write sequence on two
// indexes built alike, each with four readers searching throughout. The
// two end with == proximity graphs, walk the same epochs and answer
// alike; and every answer a reader saw is the one the other index gives
// at that epoch — nothing a write does depends on scheduling.
func TestWritesDeterministicUnderReaders(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two indexes; CI runs it under -race in the store determinism step")
	}
	type run struct {
		x     *Index
		snaps []*Snapshot // one per epoch, in order
		seen  []observed
	}
	search := func(t *testing.T, s *Snapshot, qi int) observed {
		res, st, err := s.Engine.Search(context.Background(), fixture.test[qi], core.SearchOptions{K: 3, Beam: 10})
		if err != nil {
			t.Error(err)
		}
		return observed{epoch: s.Epoch, query: qi, res: res, ndc: st.NDC}
	}
	var runs [2]*run
	for i := range runs {
		x, _, test := newIndex(t)
		r := &run{x: x, snaps: []*Snapshot{x.Snapshot()}}
		done := make(chan struct{})
		var wg sync.WaitGroup
		seen := make([][]observed, 4)
		for g := range seen {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for n := g; n < g+readerSearches; n++ {
					select {
					case <-done:
						return
					default:
					}
					seen[g] = append(seen[g], search(t, x.Snapshot(), n%len(test)))
				}
			}(g)
		}
		writeSequence(t, x, func() { r.snaps = append(r.snaps, x.Snapshot()) })
		close(done)
		wg.Wait()
		for _, s := range seen {
			r.seen = append(r.seen, s...)
		}
		runs[i] = r
	}

	a, b := runs[0], runs[1]
	ha, hb := a.x.Snapshot().Engine.Index, b.x.Snapshot().Engine.Index
	if !reflect.DeepEqual(ha.PG.Adj, hb.PG.Adj) || !reflect.DeepEqual(ha.Upper, hb.Upper) ||
		!reflect.DeepEqual(ha.Level, hb.Level) || ha.Entry != hb.Entry {
		t.Fatal("the same writes left two indexes with different proximity graphs")
	}
	for e := range a.snaps {
		if a.snaps[e].Epoch != uint64(e) || b.snaps[e].Epoch != uint64(e) {
			t.Fatalf("write %d published epochs %d and %d; want %d", e, a.snaps[e].Epoch, b.snaps[e].Epoch, e)
		}
	}
	for qi := range fixture.test {
		if oa, ob := search(t, a.x.Snapshot(), qi), search(t, b.x.Snapshot(), qi); !reflect.DeepEqual(oa, ob) {
			t.Fatalf("query %d: the two indexes answer %+v and %+v", qi, oa, ob)
		}
	}
	if len(a.seen)+len(b.seen) == 0 {
		t.Fatal("no reader searched")
	}
	for i, r := range runs {
		other := runs[1-i].snaps
		for _, o := range r.seen {
			if want := search(t, other[o.epoch], o.query); !reflect.DeepEqual(o, want) {
				t.Fatalf("index %d: a reader at epoch %d saw %+v; the other index answers %+v", i, o.epoch, o, want)
			}
		}
	}
}
