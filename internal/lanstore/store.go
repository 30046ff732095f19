package lanstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/obs"
)

// Store is an open v3 snapshot: a read-only view over the mapped (or, on
// platforms without mmap, fully read) file. It implements pg.GraphStore —
// candidate fetches decode graph segments on demand — and serves the
// base-layer adjacency and the M_rk embedding table from the mapping.
// All accessors are safe for concurrent readers.
type Store struct {
	data   []byte
	mapped bool
	h      header

	meta   []byte
	labels []string
	adj    [][]int // per-node views, aliased into data when possible
	offs   []uint64
	blob   []byte
	emb    []byte

	m *obs.StoreMetrics
}

// Open maps the v3 snapshot at path and validates its structure: magic
// and version, section table bounds and alignment, the checksums of the
// structural sections (meta, labels, adj, offs), segment-boundary
// monotonicity and adjacency-row shape. The payload sections are NOT
// checksummed here — call VerifyPayload before bulk-materializing, or
// rely on the per-fetch validation in graph.Assemble. Files without the
// LANSNAP magic fail with ErrNotSnapshot; newer format digits with
// ErrFutureVersion; everything else with ErrCorrupt.
func Open(path string) (*Store, error) {
	data, mapped, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	s := &Store{data: data, mapped: mapped, m: obs.Store()}
	if err := s.init(); err != nil {
		s.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.m.Opens.Inc()
	s.m.MappedBytes.Add(int64(len(data)))
	return s, nil
}

func (s *Store) init() error {
	data := s.data
	if len(data) < len(magicPrefix) || string(data[:len(magicPrefix)]) != magicPrefix {
		return ErrNotSnapshot
	}
	if len(data) < headerSize {
		return corruptf("truncated header: %d bytes", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return fmt.Errorf("%w: file has version %q, this build reads %q",
			ErrFutureVersion, data[len(magicPrefix):len(magic)], magic[len(magicPrefix):])
	}
	h := &s.h
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
		return corruptf("header declares %d graphs in a file of %d bytes", nGraphs, size)
	}
	switch embCode {
	case embF64:
	case 1, 2:
		return corruptf("embedding encoding %d (f32/int8) was removed; rebuild the index with lan-train", embCode)
	default:
		return corruptf("unknown embedding encoding %d", embCode)
	}
	if adjStride == 0 || adjStride > size/8 {
		return corruptf("adjacency stride %d in a file of %d bytes", adjStride, size)
	}
	if embDim > size || embDim > math.MaxInt/8-1 {
		return corruptf("embedding dimension %d in a file of %d bytes", embDim, size)
	}
	h.nGraphs, h.embDim, h.adjStride = int(nGraphs), int(embDim), int(adjStride)
	for i, sec := range h.sections {
		if sec.off < uint64(headerSize) || sec.off > uint64(len(data)) ||
			sec.length > uint64(len(data))-sec.off {
			return corruptf("section %d [%d,+%d) outside file of %d bytes", i, sec.off, sec.length, len(data))
		}
		if sec.off%8 != 0 {
			return corruptf("section %d misaligned at offset %d", i, sec.off)
		}
	}
	for _, i := range []int{secMeta, secLabels, secAdj, secOffs} {
		sec := h.sections[i]
		if crc := crc32.ChecksumIEEE(s.section(i)); uint64(crc) != sec.crc {
			return corruptf("section %d checksum mismatch (%08x != %08x)", i, crc, sec.crc)
		}
	}

	s.meta = s.section(secMeta)
	s.blob = s.section(secBlob)
	s.emb = s.section(secEmb)

	var err error
	if s.labels, err = decodeLabels(s.section(secLabels)); err != nil {
		return err
	}
	if got, want := h.sections[secOffs].length, uint64(8*(h.nGraphs+1)); got != want {
		return corruptf("offset section is %d bytes, want %d", got, want)
	}
	s.offs = aliasUint64s(s.section(secOffs))
	prev := uint64(0)
	for i, o := range s.offs {
		if o < prev || o > uint64(len(s.blob)) {
			return corruptf("graph segment boundary %d out of order (%d after %d, blob %d)", i, o, prev, len(s.blob))
		}
		prev = o
	}
	if s.offs[h.nGraphs] != uint64(len(s.blob)) {
		return corruptf("graph segments end at %d, blob is %d bytes", s.offs[h.nGraphs], len(s.blob))
	}

	if got, row := h.sections[secAdj].length, 8*adjStride; got/row != nGraphs || got%row != 0 {
		return corruptf("adjacency section is %d bytes, want %d rows of %d", got, nGraphs, row)
	}
	rows := aliasInts(s.section(secAdj))
	s.adj = make([][]int, h.nGraphs)
	for i := range s.adj {
		row := rows[i*h.adjStride : (i+1)*h.adjStride]
		deg := row[0]
		if deg < 0 || deg > h.adjStride-1 {
			return corruptf("adjacency row %d has degree %d (stride %d)", i, deg, h.adjStride)
		}
		s.adj[i] = row[1 : 1+deg]
	}

	// No embeddings is dimension 0 and an empty section, and only that.
	if got := h.sections[secEmb].length; embDim == 0 {
		if got != 0 {
			return corruptf("embedding section is %d bytes at dimension 0", got)
		}
	} else if row := 8 * embDim; got/row != nGraphs || got%row != 0 {
		return corruptf("embedding section is %d bytes, want %d rows of %d", got, nGraphs, row)
	}
	return nil
}

func (s *Store) section(i int) []byte {
	sec := s.h.sections[i]
	return s.data[sec.off : sec.off+sec.length]
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

// VerifyPayload checksums the graph-segment and embedding sections —
// the full-file integrity check Open defers so that opening a beyond-RAM
// snapshot does not page the whole mapping in. The RAM materialization
// path runs it before decoding.
func (s *Store) VerifyPayload() error {
	for _, i := range []int{secBlob, secEmb} {
		sec := s.h.sections[i]
		if crc := crc32.ChecksumIEEE(s.section(i)); uint64(crc) != sec.crc {
			return corruptf("section %d checksum mismatch (%08x != %08x)", i, crc, sec.crc)
		}
	}
	return nil
}

// Close releases the mapping. Graphs fetched earlier remain valid (they
// are decoded copies); adjacency and embedding views do not.
func (s *Store) Close() error {
	if s.data == nil {
		return nil
	}
	data, mapped := s.data, s.mapped
	s.data, s.adj, s.offs, s.blob, s.emb, s.meta = nil, nil, nil, nil, nil, nil
	if s.m != nil {
		s.m.MappedBytes.Add(-int64(len(data)))
	}
	if mapped {
		return unmapFile(data)
	}
	return nil
}

// Meta returns the opaque metadata section (internal/core's snapshot
// JSON). The slice views the mapping; do not retain past Close.
func (s *Store) Meta() []byte { return s.meta }

// Labels returns the snapshot's sorted distinct node labels — the
// persisted vocabulary.
func (s *Store) Labels() []string { return s.labels }

// MappedBytes returns the size of the underlying file view.
func (s *Store) MappedBytes() int { return len(s.data) }

// Adjacency returns the base-layer proximity-graph adjacency as per-node
// views into the mapping (decoded copies on platforms that cannot alias).
// Rows must not be modified and do not survive Close.
func (s *Store) Adjacency() [][]int { return s.adj }

// AdjacencyCopy returns a heap copy of the adjacency that survives Close
// — the RAM materialization path.
func (s *Store) AdjacencyCopy() [][]int {
	out := make([][]int, len(s.adj))
	for i, ns := range s.adj {
		out[i] = append(make([]int, 0, len(ns)), ns...)
	}
	return out
}

// Len implements pg.GraphStore.
func (s *Store) Len() int { return s.h.nGraphs }

// graphSegment returns the raw varint segment of graph id.
func (s *Store) graphSegment(id int) []byte {
	return s.blob[s.offs[id]:s.offs[id+1]]
}

// Graph implements pg.GraphStore: it decodes graph id out of its blob
// segment. The decoded graph is a fresh heap object safe to retain.
func (s *Store) Graph(id int) *graph.Graph {
	g, err := s.decodeGraph(id)
	if err != nil {
		// Open validated the section structure and per-graph invariants
		// are re-checked by graph.Assemble; reaching this means the file
		// changed or rotted underneath the mapping. There is no error
		// channel in the fetch path, and serving a wrong graph would
		// silently corrupt results.
		panic(err)
	}
	return g
}

// FetchGraphs implements pg.GraphStore: the candidate batch decodes as
// consecutive segment reads. Neighbor lists arrive id-sorted, so the
// segments read nearly sequentially within the blob.
func (s *Store) FetchGraphs(ids []int, dst []*graph.Graph) []*graph.Graph {
	bytes := uint64(0)
	for _, id := range ids {
		bytes += s.offs[id+1] - s.offs[id]
		dst = append(dst, s.Graph(id))
	}
	s.m.FetchBatches.Inc()
	s.m.GraphFetches.Add(uint64(len(ids)))
	s.m.GraphBytes.Add(bytes)
	return dst
}

func (s *Store) decodeGraph(id int) (*graph.Graph, error) {
	if id < 0 || id >= s.h.nGraphs {
		return nil, corruptf("graph id %d out of range (%d graphs)", id, s.h.nGraphs)
	}
	seg := s.graphSegment(id)
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
		if !ok || li >= uint64(len(s.labels)) {
			return nil, corruptf("graph %d: bad label id for node %d", id, u)
		}
		labels[u] = s.labels[li]
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

// DecodeAll materializes the whole database on the heap — the RAM
// storage mode. Unlike the per-fetch path it returns decode failures as
// errors.
func (s *Store) DecodeAll() (graph.Database, error) {
	db := make(graph.Database, s.h.nGraphs)
	for i := range db {
		g, err := s.decodeGraph(i)
		if err != nil {
			return nil, err
		}
		db[i] = g
	}
	return db, nil
}

// NodeEmbeddingCount implements models.NodeEmbeddingSource.
func (s *Store) NodeEmbeddingCount() int {
	if s.h.embDim == 0 {
		return 0
	}
	return s.h.nGraphs
}

// NodeEmbedding implements models.NodeEmbeddingSource: it serves the
// M_rk embedding row of graph id, aliased straight out of the mapping
// when the platform allows and otherwise decoded into buf (grown with the
// amortized self-growth append, so steady-state reads stay
// allocation-free).
func (s *Store) NodeEmbedding(id int, buf []float64) []float64 {
	s.m.EmbeddingReads.Inc()
	dim := s.h.embDim
	row := s.emb[8*dim*id : 8*dim*(id+1)]
	if f := aliasFloat64s(row); f != nil {
		return f
	}
	buf = buf[:0]
	for j := 0; j < dim; j++ {
		buf = append(buf, math.Float64frombits(binary.LittleEndian.Uint64(row[8*j:])))
	}
	return buf
}

// EmbeddingsFloat64 decodes the whole embedding table onto the heap —
// the RAM materialization path (nil when the snapshot carries none).
func (s *Store) EmbeddingsFloat64() [][]float64 {
	if s.h.embDim == 0 {
		return nil
	}
	out := make([][]float64, s.h.nGraphs)
	for i := range out {
		// Copy: NodeEmbedding may return rows aliased into the mapping,
		// and materialized tables must survive Close.
		out[i] = append([]float64(nil), s.NodeEmbedding(i, nil)...)
	}
	return out
}
