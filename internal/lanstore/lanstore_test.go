package lanstore

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"strings"
	"testing"

	"github.com/lansearch/lan/internal/dataset"
)

func testData(t *testing.T) *SnapshotData {
	t.Helper()
	db := dataset.Spec{Name: "AIDS", Kind: dataset.KindMolecule, Graphs: 40, AvgNodes: 9,
		AvgEdges: 10, NumLabels: 3, LabelSkew: 0.3, ClusterSize: 8, MaxMutations: 3, Seed: 11}.Generate()
	adj := make([][]int, len(db))
	for i := range adj {
		for _, d := range []int{1, 2, 5} {
			if j := (i + d) % len(db); j != i {
				adj[i] = append(adj[i], j)
			}
		}
		insertionSort(adj[i])
	}
	// Symmetrize so the rows form a valid PG.
	sym := make([]map[int]bool, len(db))
	for i := range sym {
		sym[i] = make(map[int]bool)
	}
	for i, ns := range adj {
		for _, j := range ns {
			sym[i][j] = true
			sym[j][i] = true
		}
	}
	for i := range adj {
		adj[i] = adj[i][:0]
		for j := 0; j < len(db); j++ {
			if sym[i][j] {
				adj[i] = append(adj[i], j)
			}
		}
	}
	emb := make([][]float64, len(db))
	for i := range emb {
		emb[i] = []float64{float64(i) * 0.25, -1.5, 3.14159e-3 * float64(i%7), 42}
	}
	return &SnapshotData{Meta: []byte(`{"hello":"world"}`), DB: db, Adj: adj, Emb: emb}
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

func writeOpen(t *testing.T, d *SnapshotData) *Snapshot {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.lan")
	if err := Write(path, d); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	// f64 is the one embedding encoding the format writes.
	t.Run("f64", testRoundTripF64)
}

func testRoundTripF64(t *testing.T) {
	d := testData(t)
	s := writeOpen(t, d)

	if got := string(s.Meta); got != string(d.Meta) {
		t.Fatalf("meta %q != %q", got, d.Meta)
	}
	if len(s.DB) != len(d.DB) {
		t.Fatalf("len %d != %d", len(s.DB), len(d.DB))
	}

	// Graphs decode exactly (labels + adjacency + edge count).
	for i, want := range d.DB {
		got := s.DB[i]
		if !got.Equal(want) || got.ID != want.ID {
			t.Fatalf("graph %d decode mismatch: %v vs %v", i, got, want)
		}
	}
	if err := s.DB.Validate(); err != nil {
		t.Fatal(err)
	}
	if want, _ := labelTable(d.DB); !reflect.DeepEqual(s.Labels, want) {
		t.Fatalf("labels %v != %v", s.Labels, want)
	}
	if !reflect.DeepEqual(s.Adj, d.Adj) {
		t.Fatal("adjacency mismatch")
	}
	// Embeddings come back bit-exact.
	if !reflect.DeepEqual(s.Emb, d.Emb) {
		t.Fatal("embeddings not exact")
	}
}

// TestOpenRefusesRemovedEncodings: the header field that named the f32
// and int8 embedding encodings stays in the format, and a file carrying
// either code is refused by an error that says to rebuild.
func TestOpenRefusesRemovedEncodings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.lan")
	if err := Write(path, testData(t)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const codeAt = len(magic) + 16 // after the graph count and the dimension
	if got := binary.LittleEndian.Uint64(raw[codeAt:]); got != embF64 {
		t.Fatalf("writer stored embedding encoding %d; want %d", got, embF64)
	}
	for _, code := range []uint64{1, 2} {
		binary.LittleEndian.PutUint64(raw[codeAt:], code)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(path)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "rebuild") {
			t.Fatalf("encoding %d: got %v, want ErrCorrupt saying to rebuild", code, err)
		}
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte(`{"version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("got %v, want ErrNotSnapshot", err)
	}
}

func TestOpenRejectsFutureVersion(t *testing.T) {
	d := testData(t)
	path := filepath.Join(t.TempDir(), "snap.lan")
	if err := Write(path, d); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(magicPrefix)] = '9'
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrFutureVersion) {
		t.Fatalf("got %v, want ErrFutureVersion", err)
	}
}

func TestOpenRejectsTruncated(t *testing.T) {
	d := testData(t)
	path := filepath.Join(t.TempDir(), "snap.lan")
	if err := Write(path, d); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{len(magic) + 3, headerSize - 1, headerSize + 16, len(raw) - 1} {
		if err := os.WriteFile(path, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(path)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated to %d bytes: got %v, want ErrCorrupt", n, err)
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	d := testData(t)
	path := filepath.Join(t.TempDir(), "snap.lan")
	if err := Write(path, d); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := decodeHeader(raw)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a byte in every region, and the first and last byte of every
	// section: Open fails with a named error, no panic. The graph payload
	// and the embedding rows are checked like the rest.
	var probes []int
	for probe := headerSize; probe < len(raw); probe += 64 {
		probes = append(probes, probe)
	}
	for i, sec := range h.sections {
		if sec.length == 0 {
			t.Fatalf("section %d is empty; the probe would miss it", i)
		}
		probes = append(probes, int(sec.off), int(sec.off+sec.length-1))
	}
	for _, probe := range probes {
		mut := append([]byte(nil), raw...)
		mut[probe] ^= 0xff
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: got %v, want ErrCorrupt", probe, err)
		}
	}
}

// tinyData is a snapshot small enough to sweep exhaustively.
func tinyData(t *testing.T) *SnapshotData {
	t.Helper()
	db := dataset.Spec{Name: "TINY", Kind: dataset.KindMolecule, Graphs: 6, AvgNodes: 4,
		AvgEdges: 4, NumLabels: 2, LabelSkew: 0.3, ClusterSize: 3, MaxMutations: 2, Seed: 5}.Generate()
	adj := make([][]int, len(db))
	emb := make([][]float64, len(db))
	for i := range db {
		prev, next := (i+len(db)-1)%len(db), (i+1)%len(db)
		adj[i] = []int{prev, next}
		insertionSort(adj[i])
		emb[i] = []float64{float64(i), -0.5}
	}
	return &SnapshotData{Meta: []byte(`{}`), DB: db, Adj: adj, Emb: emb}
}

// TestOpenHeaderSweep sets every byte of the header to every value. The
// scalar fields and the section table sit outside every checksum, so each
// of those 47,104 files must either be refused by name or decode whole —
// no panic, and nothing allocated that a file of a few hundred bytes
// could not justify. Before the scalar fields were bounded by the file
// length, a graph count or an embedding dimension with a high bit set
// passed the section-size checks by wrap-around and the reader panicked.
func TestOpenHeaderSweep(t *testing.T) {
	const allocBound = 8 << 20
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	allocated := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	path := filepath.Join(t.TempDir(), "tiny.lansnap")
	if err := Write(path, tinyData(t)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	opened := 0
	for off := 0; off < headerSize; off++ {
		for v := 0; v < 256; v++ {
			data := append([]byte(nil), raw...)
			data[off] = byte(v)
			before := allocated()
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("header byte %d = %#02x: panic: %v", off, v, r)
					}
				}()
				if _, err := decode(data); err != nil {
					if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFutureVersion) && !errors.Is(err, ErrNotSnapshot) {
						t.Fatalf("header byte %d = %#02x: unnamed error %v", off, v, err)
					}
					return
				}
				opened++
			}()
			if got := allocated() - before; got > allocBound {
				t.Fatalf("header byte %d = %#02x: %d bytes allocated", off, v, got)
			}
		}
	}
	// The unchanged value of each byte still opens.
	if opened < headerSize {
		t.Fatalf("only %d of the swept files opened; the sweep is not reaching the decoders", opened)
	}
	t.Logf("%d-byte snapshot, %d of %d header variants open", len(raw), opened, 256*headerSize)
}
