package cg

// Workspace is the memory one search's model inference runs on: a
// bump-allocated float slab for the kernels' temporaries, bump-allocated
// id and batch-header slabs for what the router keeps until the search
// ends, and a table of fixed-width float rows keyed by graph id — the
// memo M_rk keeps of everything that depends on (G′, Q) alone. A search
// makes one, hands it to the initial selector and to the ranker, and
// drops it when it ends; once the first few calls have grown the slabs to
// the search's sizes, inference allocates nothing (TestInferAllocs).
//
// A Workspace serves one goroutine. The float slab is a stack: Cross
// pops what it pushed, so a caller's Floats survive the Cross calls made
// while it holds them. Slabs grow by replacement, never by copying:
// slices handed out before a growth keep their (old) backing array, so
// they stay valid and keep their contents.
type Workspace struct {
	// The bound (model, query) pair and what Bind hoists out of the
	// per-pair kernel: the layer-1 cross message q sends to every group of
	// g (Vocab.Size() wide).
	m   *CrossModel
	q   *Compressed
	qMu []float64

	f       bump[float64] // kernel temporaries and callers' per-call scratch
	ints    bump[int]     // search lifetime: ranked neighbour ids
	batches bump[[]int]   // search lifetime: batch headers over ints

	// The memo: the id that maps to slot s owns row s%n of chunk s/n, n the
	// rows of its width that fit a chunk. Chunks are added as rows are
	// needed, so the table holds what the search needed, to within a chunk,
	// and a row never moves.
	slot  map[int]int32
	rows  [][]float64
	width int
}

// bump is a slab handed out front to back. reserve may replace the slab
// (allocating); take never allocates, which is what keeps the kernels that
// call it allocation-free (TestCrossAllocs, TestInferAllocs).
type bump[T any] struct {
	buf []T
	off int
}

// reserve makes room for n more elements past the current offset. A
// replaced slab is not copied: outstanding slices keep the old array.
func (b *bump[T]) reserve(n int) {
	if b.off+n <= len(b.buf) {
		return
	}
	// Doubling from a floor: a search's workspace starts empty, and its
	// first requests are a handful of elements.
	b.buf = make([]T, max(2*len(b.buf), b.off+n, 256))
}

// take hands out the next n elements, contents unspecified, capacity
// clipped so an append cannot run into the neighbour.
func (b *bump[T]) take(n int) []T {
	s := b.buf[b.off : b.off+n : b.off+n]
	b.off += n
	return s
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{slot: make(map[int]int32, 64)}
}

// Reset rewinds the workspace — the bound pair, the memo and everything
// handed out are forgotten, capacity is kept — for a caller that runs
// search after search on one (the benchmarks, TestInferAllocs).
func (ws *Workspace) Reset() {
	ws.m, ws.q = nil, nil
	ws.f.off, ws.ints.off, ws.batches.off = 0, 0, 0
	ws.StartMemo(ws.width)
}

// Floats hands out n floats of per-call scratch from the kernel stack,
// contents unspecified. Release them with PopFloats, innermost first.
func (ws *Workspace) Floats(n int) []float64 {
	ws.f.reserve(n)
	return ws.f.take(n)
}

// PopFloats releases the n floats most recently handed out by Floats.
func (ws *Workspace) PopFloats(n int) { ws.f.off -= n }

// Ints hands out n ints that stay valid until Reset.
func (ws *Workspace) Ints(n int) []int {
	ws.ints.reserve(n)
	return ws.ints.take(n)
}

// Batches hands out an empty batch list with room for n batches, valid
// until Reset.
func (ws *Workspace) Batches(n int) [][]int {
	ws.batches.reserve(n)
	return ws.batches.take(n)[:0]
}

// memoChunkFloats is the size of a memo chunk (16 KB; one row when a row
// is wider): chunks are sized by bytes, not rows, so a wide row does not
// make a search of a few dozen neighbours allocate several times what it
// fills.
const memoChunkFloats = 2048

// StartMemo empties the memo and sets its row width. Chunks of the same
// width are reused; a different width drops them.
func (ws *Workspace) StartMemo(width int) {
	clear(ws.slot)
	if width != ws.width {
		ws.rows, ws.width = nil, width
	}
}

// MemoRow returns the memo row of id and whether it was there already; a
// new row's contents are unspecified and the caller fills it. Rows stay
// valid until the next StartMemo.
func (ws *Workspace) MemoRow(id int) (row []float64, hit bool) {
	n := max(1, memoChunkFloats/max(1, ws.width))
	s, hit := ws.slot[id]
	if !hit {
		s = int32(len(ws.slot))
		ws.slot[id] = s
		if int(s)/n == len(ws.rows) {
			ws.rows = append(ws.rows, make([]float64, n*ws.width))
		}
	}
	return ws.rows[int(s)/n][int(s)%n*ws.width:][:ws.width], hit
}
