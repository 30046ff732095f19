// Package lanstore implements the binary snapshot container behind the
// mmap-backed storage tier (snapshot format v3). A v3 file is fully
// self-contained — database graphs, base-layer adjacency, M_rk node
// embeddings and the engine's JSON metadata travel together — and is laid
// out so a reader can serve searches straight off a read-only mapping:
//
//	header   magic "LANSNAP3", section table (offset, length, CRC32)
//	meta     opaque JSON (owned by internal/core: models, clustering, ...)
//	labels   string table of the distinct node labels, sorted
//	adj      fixed-stride int64 rows: [degree, neighbors..., 0 pad]
//	offs     (n+1) uint64 graph-segment boundaries into blob
//	blob     per-graph varint segments: nodes, label ids, delta adjacency
//	emb      M_rk node-embedding rows: float64, float32 or int8+scale
//
// All integers are little-endian; the adj, offs and emb sections start
// 8-byte aligned so a little-endian 64-bit reader can alias them in
// place instead of decoding copies. Each section carries its own CRC32:
// the structural sections (meta, labels, adj, offs) are verified on every
// Open, while the payload sections (blob, emb) are verified by
// VerifyPayload — run by the RAM materialization path, and skipped by the
// mmap path so opening a beyond-RAM snapshot does not page the whole file
// in. Graph segments decode through graph.Assemble, which re-validates
// the per-graph invariants on every fetch.
package lanstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"github.com/lansearch/lan/graph"
)

// Quant selects the on-disk precision of the embedding section.
type Quant string

const (
	// QuantF64 stores embeddings bit-exact; searches over the snapshot
	// are bit-identical to the RAM engine.
	QuantF64 Quant = "f64"
	// QuantF32 rounds embedding coordinates to float32 (half the space;
	// perturbs only M_rk ranking scores, never final distances).
	QuantF32 Quant = "f32"
	// QuantInt8 stores each embedding row as int8 codes with a per-row
	// float32 scale and offset (about 1/8 the space of f64).
	QuantInt8 Quant = "int8"
)

// Named error classes. Callers match with errors.Is; every failure is
// wrapped with file-specific detail.
var (
	// ErrNotSnapshot marks a file without the LANSNAP magic. The JSON
	// index files of format versions 1 and 2 land here: their readers were
	// removed, and the one way forward is to rebuild the index.
	ErrNotSnapshot = errors.New("lanstore: not a .lansnap snapshot (no LANSNAP magic; the JSON index formats v1/v2 were removed — rebuild the index with lan-train)")
	// ErrFutureVersion marks a LANSNAP file whose version this build does
	// not read.
	ErrFutureVersion = errors.New("lanstore: snapshot format is newer than this build")
	// ErrCorrupt marks a structurally invalid or checksum-failing file.
	ErrCorrupt = errors.New("lanstore: corrupt snapshot")
)

const (
	magic = "LANSNAP3"
	// magicPrefix is shared by every (current and future) binary
	// snapshot version; the byte after it is the format digit.
	magicPrefix = "LANSNAP"

	embF64  = 0
	embF32  = 1
	embInt8 = 2

	// Section indices into the header table.
	secMeta   = 0
	secLabels = 1
	secAdj    = 2
	secOffs   = 3
	secBlob   = 4
	secEmb    = 5
	nSections = 6

	// headerSize = magic + 4 scalar fields + per-section (off, len, crc).
	headerSize = len(magic) + 8*(4+3*nSections)
)

// header is the decoded fixed-size file prelude.
type header struct {
	nGraphs   int
	embDim    int
	embCode   int
	adjStride int
	sections  [nSections]struct{ off, length, crc uint64 }
}

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// SnapshotData is the writer's input: everything a v3 file contains
// besides the layout itself.
type SnapshotData struct {
	// Meta is the engine metadata blob (opaque here; internal/core owns
	// its schema).
	Meta []byte
	// DB is the graph database; graph i must have ID i.
	DB graph.Database
	// Adj is the base-layer proximity-graph adjacency (sorted rows).
	Adj [][]int
	// Emb holds the M_rk node-embedding table (may be nil).
	Emb [][]float64
	// Quant selects the embedding precision (default QuantF64).
	Quant Quant
}

func embCodeOf(q Quant) (int, error) {
	switch q {
	case "", QuantF64:
		return embF64, nil
	case QuantF32:
		return embF32, nil
	case QuantInt8:
		return embInt8, nil
	}
	return 0, fmt.Errorf("lanstore: unknown quantization %q (want f64, f32 or int8)", q)
}

// embRowBytes returns the on-disk stride of one embedding row.
func embRowBytes(code, dim int) int {
	switch code {
	case embF32:
		return 4 * dim
	case embInt8:
		return 8 + dim // float32 scale + float32 offset + dim codes
	default:
		return 8 * dim
	}
}

// Write serializes d to path in snapshot format v3, atomically and
// durably: the bytes land under a temporary name in path's directory, are
// synced, renamed into place, and the directory entry is synced after
// them — a crash leaves the old file or the new one, never a torn one.
func Write(path string, d *SnapshotData) error {
	if len(d.DB) == 0 {
		return fmt.Errorf("lanstore: write: empty database")
	}
	if len(d.Adj) != len(d.DB) {
		return fmt.Errorf("lanstore: write: %d adjacency rows for %d graphs", len(d.Adj), len(d.DB))
	}
	if len(d.Emb) != 0 && len(d.Emb) != len(d.DB) {
		return fmt.Errorf("lanstore: write: %d embedding rows for %d graphs", len(d.Emb), len(d.DB))
	}
	code, err := embCodeOf(d.Quant)
	if err != nil {
		return err
	}

	labels, labelIdx := labelTable(d.DB)
	blob, offs, err := encodeGraphs(d.DB, labelIdx)
	if err != nil {
		return err
	}

	var h header
	h.nGraphs = len(d.DB)
	h.embCode = code
	if len(d.Emb) > 0 {
		h.embDim = len(d.Emb[0])
	}
	h.adjStride = 1
	for _, ns := range d.Adj {
		if len(ns)+1 > h.adjStride {
			h.adjStride = len(ns) + 1
		}
	}

	sections := [nSections][]byte{
		secMeta:   d.Meta,
		secLabels: encodeLabels(labels),
		secAdj:    encodeAdj(d.Adj, h.adjStride),
		secOffs:   encodeOffs(offs),
		secBlob:   blob,
		secEmb:    encodeEmb(d.Emb, code, h.embDim),
	}

	off := uint64(headerSize)
	var out []byte
	for i, sec := range sections {
		off = align8(off)
		h.sections[i].off = off
		h.sections[i].length = uint64(len(sec))
		h.sections[i].crc = uint64(crc32.ChecksumIEEE(sec))
		off += uint64(len(sec))
	}
	out = make([]byte, 0, off)
	out = append(out, encodeHeader(&h)...)
	for _, sec := range sections {
		for uint64(len(out))%8 != 0 {
			out = append(out, 0)
		}
		out = append(out, sec...)
	}

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".lansnap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(out); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// The rename is durable once the directory is. Best effort: some
	// platforms and filesystems cannot open or sync a directory, and the
	// snapshot itself is already complete under its final name.
	if df, err := os.Open(dir); err == nil {
		_ = df.Sync()
		df.Close()
	}
	return nil
}

func align8(v uint64) uint64 { return (v + 7) &^ 7 }

// labelTable returns the sorted distinct node labels of db and their
// index map — the persisted counterpart of cg.NewVocab's scan, so vocab
// reconstruction at load needs no database pass.
func labelTable(db graph.Database) ([]string, map[string]int) {
	set := make(map[string]bool)
	for _, g := range db {
		for u := 0; u < g.N(); u++ {
			set[g.Label(u)] = true
		}
	}
	labels := make([]string, 0, len(set))
	for l := range set {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	idx := make(map[string]int, len(labels))
	for i, l := range labels {
		idx[l] = i
	}
	return labels, idx
}

func encodeLabels(labels []string) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(labels)))
	for _, l := range labels {
		buf = binary.AppendUvarint(buf, uint64(len(l)))
		buf = append(buf, l...)
	}
	return buf
}

// encodeGraphs produces the length-prefixed graph segments: per graph a
// varint node count, the node label ids, then each node's degree and
// delta-encoded sorted neighbor list.
func encodeGraphs(db graph.Database, labelIdx map[string]int) (blob []byte, offs []uint64, err error) {
	offs = make([]uint64, 0, len(db)+1)
	for _, g := range db {
		offs = append(offs, uint64(len(blob)))
		n := g.N()
		blob = binary.AppendUvarint(blob, uint64(n))
		for u := 0; u < n; u++ {
			li, ok := labelIdx[g.Label(u)]
			if !ok {
				return nil, nil, fmt.Errorf("lanstore: write: graph %d label %q missing from table", g.ID, g.Label(u))
			}
			blob = binary.AppendUvarint(blob, uint64(li))
		}
		for u := 0; u < n; u++ {
			ns := g.Neighbors(u)
			blob = binary.AppendUvarint(blob, uint64(len(ns)))
			prev := -1
			for _, v := range ns {
				blob = binary.AppendUvarint(blob, uint64(v-prev-1))
				prev = v
			}
		}
	}
	offs = append(offs, uint64(len(blob)))
	return blob, offs, nil
}

func encodeAdj(adj [][]int, stride int) []byte {
	buf := make([]byte, 8*stride*len(adj))
	for i, ns := range adj {
		row := buf[8*stride*i:]
		binary.LittleEndian.PutUint64(row, uint64(len(ns)))
		for j, v := range ns {
			binary.LittleEndian.PutUint64(row[8*(j+1):], uint64(v))
		}
	}
	return buf
}

func encodeOffs(offs []uint64) []byte {
	buf := make([]byte, 8*len(offs))
	for i, v := range offs {
		binary.LittleEndian.PutUint64(buf[8*i:], v)
	}
	return buf
}

func encodeEmb(emb [][]float64, code, dim int) []byte {
	if len(emb) == 0 || dim == 0 {
		return nil
	}
	stride := embRowBytes(code, dim)
	buf := make([]byte, stride*len(emb))
	for i, row := range emb {
		dst := buf[stride*i : stride*(i+1)]
		switch code {
		case embF32:
			for j, v := range row {
				binary.LittleEndian.PutUint32(dst[4*j:], float32bits(v))
			}
		case embInt8:
			lo, hi := row[0], row[0]
			for _, v := range row[1:] {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			scale := (hi - lo) / 255
			binary.LittleEndian.PutUint32(dst, float32bits(scale))
			binary.LittleEndian.PutUint32(dst[4:], float32bits(lo))
			for j, v := range row {
				q := 0
				if scale > 0 {
					q = int((v-lo)/scale + 0.5)
				}
				if q > 255 {
					q = 255
				}
				dst[8+j] = byte(q)
			}
		default:
			for j, v := range row {
				binary.LittleEndian.PutUint64(dst[8*j:], float64bits(v))
			}
		}
	}
	return buf
}

func encodeHeader(h *header) []byte {
	buf := make([]byte, headerSize)
	copy(buf, magic)
	p := len(magic)
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[p:], v)
		p += 8
	}
	put(uint64(h.nGraphs))
	put(uint64(h.embDim))
	put(uint64(h.embCode))
	put(uint64(h.adjStride))
	for _, s := range h.sections {
		put(s.off)
		put(s.length)
		put(s.crc)
	}
	return buf
}
