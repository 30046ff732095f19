package lan

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/lansearch/lan/graph"
)

// readFile returns the bytes of path.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// snapshotPath saves idx as a v3 binary snapshot in a temp dir.
func snapshotPath(t *testing.T, idx *Index, so SnapshotOptions) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "idx.lansnap")
	if err := idx.SaveSnapshot(path, so); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	return path
}

// TestSnapshotRoundTripBothTiers: a reopened snapshot answers like the
// index that wrote it. (The mmap tier it was once run on is gone; the
// name stays.)
func TestSnapshotRoundTripBothTiers(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode: builds a full index end to end")
	}
	idx, db, test := buildSmallIndex(t)
	path := snapshotPath(t, idx, SnapshotOptions{})

	so := SearchOptions{K: 4, Beam: 10}
	opened, err := OpenSnapshot(path, Options{})
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	if opened.Len() != len(db) {
		t.Fatalf("Len = %d; want %d", opened.Len(), len(db))
	}
	for qi, q := range test {
		want, wantStats, err := idx.Search(q, so)
		if err != nil {
			t.Fatal(err)
		}
		got, gotStats, err := opened.Search(q, so)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query %d: results diverge from the index that wrote the snapshot\nwant: %v\ngot:  %v", qi, want, got)
		}
		if wantStats.NDC != gotStats.NDC {
			t.Fatalf("query %d: NDC %d != %d", qi, gotStats.NDC, wantStats.NDC)
		}
	}
	if err := opened.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestOpenSnapshotErrors(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.lansnap")
	if err := os.WriteFile(garbage, []byte("definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshot(garbage, Options{}); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("garbage: err = %v; want ErrNotSnapshot", err)
	}

	// A JSON index of the removed formats is refused by an error that says
	// what happened to the format and what to do about it.
	old := filepath.Join(dir, "idx.lan")
	if err := os.WriteFile(old, []byte(`{"version":2,"gamma_star":4,"adj":[[1],[0]],"epoch":3}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenSnapshot(old, Options{})
	if !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("JSON index: err = %v; want ErrNotSnapshot", err)
	}
	for _, want := range []string{"removed", "lan-train"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("JSON index: error %q does not mention %q", err, want)
		}
	}
}

// TestOpenSnapshotDamagedFiles pins the failure modes of a snapshot at the
// public opener: truncation and bit corruption surface as named errors
// (never a panic), and a snapshot from a future format version is refused
// by name.
func TestOpenSnapshotDamagedFiles(t *testing.T) {
	idx, _, _ := buildMutableIndex(t)
	raw, err := os.ReadFile(snapshotPath(t, idx, SnapshotOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	damaged := func(name string, edit func(b []byte) []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, edit(append([]byte(nil), raw...)), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	truncated := damaged("truncated.lansnap", func(b []byte) []byte { return b[:len(b)*3/5] })
	if _, err := OpenSnapshot(truncated, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated: err = %v; want ErrCorrupt", err)
	}

	// Flip a byte in the meta section (just past the fixed-size header)
	// and the file's last byte, in the embedding rows: every section is
	// checksummed at open.
	for _, at := range []int{200, len(raw) - 1} {
		corrupt := damaged("corrupt.lansnap", func(b []byte) []byte { b[at] ^= 0xff; return b })
		if _, err := OpenSnapshot(corrupt, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("corrupt at byte %d: err = %v; want ErrCorrupt", at, err)
		}
	}

	// The magic is "LANSNAP" + a version digit.
	future := damaged("future.lansnap", func(b []byte) []byte { b[7] = '9'; return b })
	if _, err := OpenSnapshot(future, Options{}); !errors.Is(err, ErrFutureVersion) {
		t.Fatalf("future: err = %v; want ErrFutureVersion", err)
	}
}

// TestSaveSnapshotLeavesNoTempFile pins the atomic write: whether
// SaveSnapshot succeeds or fails, the directory holds no stray temp file,
// and a directory that does not exist is an error.
func TestSaveSnapshotLeavesNoTempFile(t *testing.T) {
	idx, _, _ := buildMutableIndex(t)
	names := func(dir string) []string {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range entries {
			out = append(out, e.Name())
		}
		return out
	}

	dir := t.TempDir()
	if err := idx.SaveSnapshot(filepath.Join(dir, "idx.lansnap"), SnapshotOptions{}); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	if got := names(dir); !reflect.DeepEqual(got, []string{"idx.lansnap"}) {
		t.Fatalf("after a successful save the directory holds %v", got)
	}

	// A failure past the point where the temp file exists: the rename
	// cannot replace a non-empty directory.
	dir = t.TempDir()
	blocked := filepath.Join(dir, "idx.lansnap")
	if err := os.MkdirAll(filepath.Join(blocked, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := idx.SaveSnapshot(blocked, SnapshotOptions{}); err == nil {
		t.Fatal("SaveSnapshot over a non-empty directory succeeded")
	}
	if got := names(dir); !reflect.DeepEqual(got, []string{"idx.lansnap"}) {
		t.Fatalf("after a failed save the directory holds %v", got)
	}

	if err := idx.SaveSnapshot(filepath.Join(dir, "missing", "idx.lansnap"), SnapshotOptions{}); err == nil {
		t.Fatal("SaveSnapshot into a missing directory succeeded")
	}
}

// searchAll answers every query, keeping what a reopened index must
// reproduce: the results and the NDC.
func searchAll(t *testing.T, idx *Index, queries []*graph.Graph, so SearchOptions) ([][]Result, []int) {
	t.Helper()
	var res [][]Result
	var ndc []int
	for _, q := range queries {
		r, st, err := idx.Search(q, so)
		if err != nil {
			t.Fatal(err)
		}
		res = append(res, r)
		ndc = append(ndc, st.NDC)
	}
	return res, ndc
}

// TestSnapshotMutatedRoundTrip takes a written-to index through the one
// persisted format: the epoch, the tombstones, the inserted graphs and
// every answer survive; the reopened index saves the same file and keeps
// writing where the saved index stopped; and a save taken while a writer
// runs is one consistent point-in-time state.
func TestSnapshotMutatedRoundTrip(t *testing.T) {
	idx, db, test := buildMutableIndex(t)
	var inserted []int
	for _, g := range test[:3] {
		id, err := idx.Insert(g)
		if err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, id)
	}
	for id := 0; id < 10; id++ {
		if err := idx.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := idx.Compact(); err != nil {
		t.Fatal(err)
	}
	path := snapshotPath(t, idx, SnapshotOptions{})

	so := SearchOptions{K: 4, Beam: 10}
	wantRes, wantNDC := searchAll(t, idx, test, so)
	if idx.Len() != len(db)+3-10 || idx.Epoch() < 14 {
		t.Fatalf("fixture: len %d epoch %d", idx.Len(), idx.Epoch())
	}

	opened, err := OpenSnapshot(path, Options{})
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	defer opened.Close()
	if opened.Epoch() != idx.Epoch() || opened.Len() != idx.Len() {
		t.Fatalf("epoch %d len %d; the saved index had epoch %d len %d",
			opened.Epoch(), opened.Len(), idx.Epoch(), idx.Len())
	}
	gotRes, gotNDC := searchAll(t, opened, test, so)
	if !reflect.DeepEqual(gotRes, wantRes) || !reflect.DeepEqual(gotNDC, wantNDC) {
		t.Fatalf("answers diverge from the index that wrote the snapshot\nwant: %v %v\ngot:  %v %v",
			wantRes, wantNDC, gotRes, gotNDC)
	}
	// The reopened index saves the file it was opened from, byte for byte:
	// epoch and validity stamps included.
	resaved := snapshotPath(t, opened, SnapshotOptions{})
	if a, b := readFile(t, path), readFile(t, resaved); !bytes.Equal(a, b) {
		t.Fatalf("re-saved snapshot differs from the original (%d vs %d bytes)", len(b), len(a))
	}
	// Membership is probed with the model-free strategies, so a
	// mis-ranked batch cannot hide a graph that is there.
	for i, id := range inserted {
		res, _, err := opened.Search(test[i], SearchOptions{K: 3, Beam: 12, Initial: HNSWIS, Routing: BaselineRoute})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range res {
			found = found || (r.ID == id && r.Dist == 0)
		}
		if !found {
			t.Fatalf("inserted graph %d lost in the round trip: %+v", id, res)
		}
	}
	// Tombstones stay dead.
	if err := opened.Delete(0); err == nil {
		t.Fatal("graph 0 came back from the dead after the round trip")
	}
	// The write path continues: with the beam the index was built with
	// (2M)…
	if got, want := opened.engine().Opts.M, idx.engine().Opts.M; got != want {
		t.Fatalf("M = %d after the round trip; the index was built with %d", got, want)
	}
	// …and from the epoch it stopped at.
	if _, err := opened.Insert(test[0]); err != nil {
		t.Fatalf("Insert after the round trip: %v", err)
	}
	if opened.Epoch() <= idx.Epoch() || opened.Len() != idx.Len()+1 {
		t.Fatalf("after one more insert epoch %d len %d", opened.Epoch(), opened.Len())
	}

	// Saves racing a writer. The writer only inserts, so Len never falls
	// as the epoch rises, and every snapshot it pins after a write is one
	// published (epoch, len) pair: a saved file is consistent with all of
	// them exactly when it is itself one published state.
	type pin struct {
		epoch uint64
		n     int
	}
	var pins []pin
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 12; i++ {
			if _, err := idx.Insert(test[i%len(test)]); err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
			s := idx.Snapshot()
			pins = append(pins, pin{s.Epoch(), s.Len()})
		}
	}()
	dir := t.TempDir()
	var saved []string
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		p := filepath.Join(dir, fmt.Sprintf("racing-%d.lansnap", len(saved)))
		if err := idx.SaveSnapshot(p, SnapshotOptions{}); err != nil {
			t.Fatalf("SaveSnapshot beside a writer: %v", err)
		}
		saved = append(saved, p)
	}
	for _, p := range saved {
		opened, err := OpenSnapshot(p, Options{})
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(p), err)
		}
		e, n := opened.Epoch(), opened.Len()
		if total := len(opened.Database()); total != n+10 {
			t.Fatalf("%s: %d graphs in the file, %d live + 10 tombstones expected", filepath.Base(p), total, n)
		}
		for _, pn := range pins {
			if (e >= pn.epoch && n < pn.n) || (e <= pn.epoch && n > pn.n) {
				t.Fatalf("%s: epoch %d with %d live graphs, but the writer published epoch %d with %d",
					filepath.Base(p), e, n, pn.epoch, pn.n)
			}
		}
		opened.Close()
	}
}

// TestReopenedWritePathDeterministic pins what a reopened index promises
// about writes: two reopens of one file, given the same writes, end
// with the same proximity graph, epoch and answers. It does NOT promise
// the graph the saving index would have reached with those writes — the
// build-metric memo, which decides the orientation an asymmetric metric
// is asked in, is not persisted (DESIGN.md, "Mutable index architecture").
func TestReopenedWritePathDeterministic(t *testing.T) {
	idx, _, test := buildMutableIndex(t)
	path := snapshotPath(t, idx, SnapshotOptions{})

	var twins [2]*Index
	for i := range twins {
		x, err := OpenSnapshot(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer x.Close()
		for _, g := range test[:3] {
			if _, err := x.Insert(g); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.Delete(1); err != nil {
			t.Fatal(err)
		}
		if _, err := x.Compact(); err != nil {
			t.Fatal(err)
		}
		twins[i] = x
	}
	a, b := twins[0], twins[1]
	if a.Epoch() != b.Epoch() || a.Len() != b.Len() {
		t.Fatalf("epoch %d/%d, len %d/%d", a.Epoch(), b.Epoch(), a.Len(), b.Len())
	}
	if ea, eb := a.engine().Index, b.engine().Index; !reflect.DeepEqual(ea.PG.Adj, eb.PG.Adj) ||
		!reflect.DeepEqual(ea.Upper, eb.Upper) || ea.Entry != eb.Entry {
		t.Fatal("the same writes left two reopens of one file with different proximity graphs")
	}
	so := SearchOptions{K: 4, Beam: 10}
	resA, ndcA := searchAll(t, a, test, so)
	resB, ndcB := searchAll(t, b, test, so)
	if !reflect.DeepEqual(resA, resB) || !reflect.DeepEqual(ndcA, ndcB) {
		t.Fatalf("answers diverge\na: %v %v\nb: %v %v", resA, ndcA, resB, ndcB)
	}
}
