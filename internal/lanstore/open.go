package lanstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"github.com/lansearch/lan/graph"
)

// Snapshot is an opened v3 file, decoded onto the heap: nothing in it
// refers to the bytes that were read.
type Snapshot struct {
	SnapshotData
	// Labels is the label table: the sorted distinct node labels of DB.
	Labels []string
}

// Open reads the v3 snapshot at path and decodes it whole. It checks the
// magic and version, the section table's bounds and alignment, all six
// section checksums, the segment boundaries and the adjacency rows'
// shape, and decodes every graph through graph.Assemble, which
// re-validates the per-graph invariants. Files without the LANSNAP magic
// fail with ErrNotSnapshot; newer format digits with ErrFutureVersion;
// everything else with ErrCorrupt.
func Open(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// decode is Open on the file's bytes.
func decode(data []byte) (*Snapshot, error) {
	h, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	section := func(i int) []byte {
		sec := h.sections[i]
		return data[sec.off : sec.off+sec.length]
	}
	for i, sec := range h.sections {
		if crc := crc32.ChecksumIEEE(section(i)); uint64(crc) != sec.crc {
			return nil, corruptf("section %d checksum mismatch (%08x != %08x)", i, crc, sec.crc)
		}
	}

	s := &Snapshot{}
	s.Meta = bytes.Clone(section(secMeta))
	if s.Labels, err = decodeLabels(section(secLabels)); err != nil {
		return nil, err
	}
	if s.Adj, err = decodeAdj(section(secAdj), h.nGraphs, h.adjStride); err != nil {
		return nil, err
	}
	if s.Emb, err = decodeEmb(section(secEmb), h.nGraphs, h.embDim); err != nil {
		return nil, err
	}

	blob, offs := section(secBlob), section(secOffs)
	if got, want := len(offs), 8*(h.nGraphs+1); got != want {
		return nil, corruptf("offset section is %d bytes, want %d", got, want)
	}
	bound := func(i int) uint64 { return binary.LittleEndian.Uint64(offs[8*i:]) }
	prev := uint64(0)
	for i := 0; i <= h.nGraphs; i++ {
		o := bound(i)
		if o < prev || o > uint64(len(blob)) {
			return nil, corruptf("graph segment boundary %d out of order (%d after %d, blob %d)", i, o, prev, len(blob))
		}
		prev = o
	}
	if prev != uint64(len(blob)) {
		return nil, corruptf("graph segments end at %d, blob is %d bytes", prev, len(blob))
	}
	s.DB = make(graph.Database, h.nGraphs)
	for i := range s.DB {
		if s.DB[i], err = decodeGraph(i, blob[bound(i):bound(i+1)], s.Labels); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// decodeHeader reads and bounds the fixed-size prelude.
func decodeHeader(data []byte) (*header, error) {
	if len(data) < len(magicPrefix) || string(data[:len(magicPrefix)]) != magicPrefix {
		return nil, ErrNotSnapshot
	}
	if len(data) < headerSize {
		return nil, corruptf("truncated header: %d bytes", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: file has version %q, this build reads %q",
			ErrFutureVersion, data[len(magicPrefix):len(magic)], magic[len(magicPrefix):])
	}
	h := &header{}
	p := len(magic)
	get := func() uint64 {
		v := binary.LittleEndian.Uint64(data[p:])
		p += 8
		return v
	}
	nGraphs, embDim, embCode, adjStride := get(), get(), get(), get()
	for i := range h.sections {
		h.sections[i].off = get()
		h.sections[i].length = get()
		h.sections[i].crc = get()
	}
	// The scalar fields are outside every checksum, and the section sizes
	// below are products of them: bound each by what a file of this length
	// could hold before multiplying, so no product can wrap around into a
	// match. A graph costs a boundary and an adjacency row of at least
	// eight bytes each, an embedding coordinate eight bytes (and a row of
	// them must fit an int).
	size := uint64(len(data))
	if nGraphs == 0 || nGraphs > size/8 {
		return nil, corruptf("header declares %d graphs in a file of %d bytes", nGraphs, size)
	}
	switch embCode {
	case embF64:
	case 1, 2:
		return nil, corruptf("embedding encoding %d (f32/int8) was removed; rebuild the index with lan-train", embCode)
	default:
		return nil, corruptf("unknown embedding encoding %d", embCode)
	}
	if adjStride == 0 || adjStride > size/8 {
		return nil, corruptf("adjacency stride %d in a file of %d bytes", adjStride, size)
	}
	if embDim > size || embDim > math.MaxInt/8-1 {
		return nil, corruptf("embedding dimension %d in a file of %d bytes", embDim, size)
	}
	h.nGraphs, h.embDim, h.adjStride = int(nGraphs), int(embDim), int(adjStride)
	for i, sec := range h.sections {
		if sec.off < uint64(headerSize) || sec.off > size || sec.length > size-sec.off {
			return nil, corruptf("section %d [%d,+%d) outside file of %d bytes", i, sec.off, sec.length, size)
		}
		if sec.off%8 != 0 {
			return nil, corruptf("section %d misaligned at offset %d", i, sec.off)
		}
	}
	return h, nil
}

func decodeLabels(b []byte) ([]string, error) {
	n, p := binary.Uvarint(b)
	if p <= 0 || n > uint64(len(b)) { // a label costs at least its length byte
		return nil, corruptf("bad label count")
	}
	labels := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		l, q := binary.Uvarint(b[p:])
		if q <= 0 || uint64(len(b)-p-q) < l {
			return nil, corruptf("bad label %d length", i)
		}
		p += q
		labels = append(labels, string(b[p:p+int(l)]))
		p += int(l)
	}
	return labels, nil
}

// decodeAdj decodes the fixed-stride adjacency rows.
func decodeAdj(b []byte, n, stride int) ([][]int, error) {
	row := 8 * stride
	if len(b)/row != n || len(b)%row != 0 {
		return nil, corruptf("adjacency section is %d bytes, want %d rows of %d", len(b), n, row)
	}
	adj := make([][]int, n)
	for i := range adj {
		r := b[i*row : (i+1)*row]
		deg := binary.LittleEndian.Uint64(r)
		if deg > uint64(stride-1) {
			return nil, corruptf("adjacency row %d has degree %d (stride %d)", i, int64(deg), stride)
		}
		ns := make([]int, deg)
		for j := range ns {
			ns[j] = int(int64(binary.LittleEndian.Uint64(r[8*(j+1):])))
		}
		adj[i] = ns
	}
	return adj, nil
}

// decodeEmb decodes the M_rk embedding rows (nil at dimension 0).
func decodeEmb(b []byte, n, dim int) ([][]float64, error) {
	// No embeddings is dimension 0 and an empty section, and only that.
	if dim == 0 {
		if len(b) != 0 {
			return nil, corruptf("embedding section is %d bytes at dimension 0", len(b))
		}
		return nil, nil
	}
	row := 8 * dim
	if len(b)/row != n || len(b)%row != 0 {
		return nil, corruptf("embedding section is %d bytes, want %d rows of %d", len(b), n, row)
	}
	emb := make([][]float64, n)
	for i := range emb {
		r := make([]float64, dim)
		for j := range r {
			r[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*row+8*j:]))
		}
		emb[i] = r
	}
	return emb, nil
}

// decodeGraph decodes graph id from its varint segment seg.
func decodeGraph(id int, seg []byte, labelTable []string) (*graph.Graph, error) {
	p := 0
	next := func() (uint64, bool) {
		v, q := binary.Uvarint(seg[p:])
		if q <= 0 {
			return 0, false
		}
		p += q
		return v, true
	}
	n64, ok := next()
	if !ok || n64 > uint64(len(seg))/2 { // a node costs a label id and a degree
		return nil, corruptf("graph %d: bad node count", id)
	}
	n := int(n64)
	labels := make([]string, n)
	for u := 0; u < n; u++ {
		li, ok := next()
		if !ok || li >= uint64(len(labelTable)) {
			return nil, corruptf("graph %d: bad label id for node %d", id, u)
		}
		labels[u] = labelTable[li]
	}
	adj := make([][]int, n)
	for u := 0; u < n; u++ {
		deg, ok := next()
		if !ok || deg > uint64(n) || deg > uint64(len(seg)-p) {
			return nil, corruptf("graph %d: bad degree for node %d", id, u)
		}
		ns := make([]int, deg)
		prev := -1
		for j := range ns {
			d, ok := next()
			if !ok {
				return nil, corruptf("graph %d: truncated adjacency of node %d", id, u)
			}
			prev += int(d) + 1
			ns[j] = prev
		}
		adj[u] = ns
	}
	if p != len(seg) {
		return nil, corruptf("graph %d: %d trailing segment bytes", id, len(seg)-p)
	}
	g, err := graph.Assemble(id, labels, adj)
	if err != nil {
		return nil, corruptf("graph %d: %v", id, err)
	}
	return g, nil
}
