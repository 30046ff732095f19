package lanstore

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"testing"

	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/internal/obs"
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

func writeOpen(t *testing.T, d *SnapshotData) *Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.lan")
	if err := Write(path, d); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRoundTrip(t *testing.T) {
	for _, quant := range []Quant{QuantF64, QuantF32, QuantInt8} {
		t.Run(string(quant), func(t *testing.T) {
			d := testData(t)
			d.Quant = quant
			s := writeOpen(t, d)

			if got := string(s.Meta()); got != string(d.Meta) {
				t.Fatalf("meta %q != %q", got, d.Meta)
			}
			if s.Len() != len(d.DB) {
				t.Fatalf("len %d != %d", s.Len(), len(d.DB))
			}
			if s.Quant() != quant {
				t.Fatalf("quant %q != %q", s.Quant(), quant)
			}
			if err := s.VerifyPayload(); err != nil {
				t.Fatalf("payload: %v", err)
			}

			// Graphs decode exactly (labels + adjacency + edge count).
			for i, want := range d.DB {
				got := s.Graph(i)
				if !got.Equal(want) || got.ID != want.ID {
					t.Fatalf("graph %d decode mismatch: %v vs %v", i, got, want)
				}
			}
			db2, err := s.DecodeAll()
			if err != nil {
				t.Fatal(err)
			}
			if err := db2.Validate(); err != nil {
				t.Fatal(err)
			}

			// Adjacency round-trips.
			adj := s.Adjacency()
			for i, want := range d.Adj {
				got := adj[i]
				if len(got) != len(want) {
					t.Fatalf("adj %d: %v != %v", i, got, want)
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("adj %d: %v != %v", i, got, want)
					}
				}
			}
			if !reflect.DeepEqual(s.AdjacencyCopy(), d.Adj) {
				t.Fatal("AdjacencyCopy mismatch")
			}

			// Embeddings: f64 exact; quantized within encoding error.
			tol := 0.0
			switch quant {
			case QuantF32:
				tol = 1e-5
			case QuantInt8:
				tol = 1.0 // (hi-lo)/255 * safety; rows here span ~45
			}
			var buf []float64
			for i, want := range d.Emb {
				buf = s.NodeEmbedding(i, buf)
				if len(buf) != len(want) {
					t.Fatalf("emb %d: dim %d != %d", i, len(buf), len(want))
				}
				for j := range want {
					diff := buf[j] - want[j]
					if diff < 0 {
						diff = -diff
					}
					if quant == QuantF64 && diff != 0 {
						t.Fatalf("emb %d[%d]: %v != %v (must be exact)", i, j, buf[j], want[j])
					}
					if diff > tol {
						t.Fatalf("emb %d[%d]: %v vs %v beyond tol %v", i, j, buf[j], want[j], tol)
					}
				}
			}
			mat := s.EmbeddingsFloat64()
			if quant == QuantF64 && !reflect.DeepEqual(mat, d.Emb) {
				t.Fatal("EmbeddingsFloat64 not exact in f64 mode")
			}
		})
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

	// Flip a byte in every region; structural damage fails Open, payload
	// damage fails VerifyPayload — either way a named error, no panic.
	for probe := headerSize; probe < len(raw); probe += 64 {
		mut := append([]byte(nil), raw...)
		mut[probe] ^= 0xff
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err == nil {
			err = s.VerifyPayload()
			s.Close()
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: got %v, want ErrCorrupt", probe, err)
		}
	}
}

// tinyData is a snapshot small enough to sweep exhaustively.
func tinyData(t *testing.T, quant Quant) *SnapshotData {
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
	return &SnapshotData{Meta: []byte(`{}`), DB: db, Adj: adj, Emb: emb, Quant: quant}
}

// TestOpenHeaderSweep sets every byte of the header to every value. The
// scalar fields and the section table sit outside every checksum, so each
// of those 47,104 files must either be refused by name or be a snapshot
// whose every accessor returns — no panic, and nothing allocated that a
// file of a few hundred bytes could not justify. Before the scalar fields
// were bounded by the file length, a graph count or an embedding
// dimension with a high bit set passed the section-size checks by
// wrap-around and the store panicked on first use.
func TestOpenHeaderSweep(t *testing.T) {
	const allocBound = 8 << 20
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	allocated := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	for _, quant := range []Quant{QuantF64, QuantF32, QuantInt8} {
		path := filepath.Join(t.TempDir(), "tiny.lansnap")
		if err := Write(path, tinyData(t, quant)); err != nil {
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
							t.Fatalf("%s: header byte %d = %#02x: panic: %v", quant, off, v, r)
						}
					}()
					s := &Store{data: data, m: obs.Store()}
					if err := s.init(); err != nil {
						if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFutureVersion) && !errors.Is(err, ErrNotSnapshot) {
							t.Fatalf("%s: header byte %d = %#02x: unnamed error %v", quant, off, v, err)
						}
						return
					}
					opened++
					// Errors are fine from here on (a section offset moved
					// onto other bytes decodes as garbage); panics are not.
					var buf []float64
					for id := 0; id < s.Len(); id++ {
						_, _ = s.decodeGraph(id)
						if s.NodeEmbeddingCount() > 0 {
							buf = s.NodeEmbedding(id, buf)
						}
					}
					_ = s.Adjacency()
					if s.VerifyPayload() == nil {
						_, _ = s.DecodeAll()
						_ = s.EmbeddingsFloat64()
					}
				}()
				if got := allocated() - before; got > allocBound {
					t.Fatalf("%s: header byte %d = %#02x: %d bytes allocated", quant, off, v, got)
				}
			}
		}
		// The unchanged value of each byte, the checksum bytes of the
		// unverified sections and the padding all still open.
		if opened < headerSize {
			t.Fatalf("%s: only %d of the swept files opened; the sweep is not reaching the accessors", quant, opened)
		}
		t.Logf("%s: %d-byte snapshot, %d of %d header variants open", quant, len(raw), opened, 256*headerSize)
	}
}
