package cg

import (
	"runtime"
	"sync"

	"github.com/lansearch/lan/internal/mat"
)

// batchChunk is the number of graphs stacked into one matrix product per
// layer. Large enough that the W multiply crosses the mat package's
// parallel/tiling thresholds, small enough that a chunk's activations
// stay cache-resident.
const batchChunk = 64

// BatchEmbed computes Embed for every compressed graph, stacking the
// per-layer aggregation rows of a chunk of graphs into one matrix so each
// layer costs one blocked multiply instead of len(cs) small ones. Chunks
// are distributed over workers goroutines (<= 0 means GOMAXPROCS). Every
// returned embedding is bit-identical to Embed(cs[i]): the stacked
// product computes each output row with the same ascending-k accumulation
// as the per-graph product, and the aggregation and readout reuse the
// same code. The index build calls this once over the whole database.
func (m *GINModel) BatchEmbed(cs []*Compressed, workers int) [][]float64 {
	out := make([][]float64, len(cs))
	if len(cs) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type span struct{ lo, hi int }
	var spans []span
	for lo := 0; lo < len(cs); lo += batchChunk {
		hi := lo + batchChunk
		if hi > len(cs) {
			hi = len(cs)
		}
		spans = append(spans, span{lo, hi})
	}
	if workers > len(spans) {
		workers = len(spans)
	}
	if workers < 2 {
		for _, s := range spans {
			m.embedChunk(cs[s.lo:s.hi], out[s.lo:s.hi])
		}
		return out
	}
	ch := make(chan span)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for s := range ch {
				m.embedChunk(cs[s.lo:s.hi], out[s.lo:s.hi])
			}
		}()
	}
	for _, s := range spans {
		ch <- s
	}
	close(ch)
	wg.Wait()
	return out
}

// embedChunk embeds one chunk: the graphs' rows live stacked in a single
// matrix per layer, split back into per-graph views (slices of the shared
// backing array) for the aggregation and readout.
func (m *GINModel) embedChunk(cs []*Compressed, out [][]float64) {
	vocab := m.Cfg.Vocab.Size()
	offs := make([]int, len(cs)+1)
	for i, c := range cs {
		offs[i+1] = offs[i] + len(c.Levels[0].Feature)
	}
	big := mat.New(offs[len(cs)], vocab)
	hs := make([]*mat.Matrix, len(cs))
	for i, c := range cs {
		view := &mat.Matrix{Rows: offs[i+1] - offs[i], Cols: vocab, Data: big.Data[offs[i]*vocab : offs[i+1]*vocab]}
		for r, f := range c.Levels[0].Feature {
			view.Row(r)[f] = 1
		}
		hs[i] = view
	}
	for l := 1; l <= m.Cfg.Layers; l++ {
		cols := hs[0].Cols
		for i, c := range cs {
			offs[i+1] = offs[i] + len(c.Levels[l].In)
		}
		pre := mat.New(offs[len(cs)], cols)
		for i, c := range cs {
			h := hs[i]
			for r, terms := range c.Levels[l].In {
				row := pre.Data[(offs[i]+r)*cols : (offs[i]+r+1)*cols]
				for _, e := range terms {
					src := h.Row(e.Row)
					for k, v := range src {
						row[k] += e.W * v
					}
				}
			}
		}
		big = mat.Mul(pre, m.W[l-1].Data)
		for i, v := range big.Data {
			if v < 0 {
				big.Data[i] = 0
			}
		}
		for i := range cs {
			hs[i] = &mat.Matrix{Rows: offs[i+1] - offs[i], Cols: big.Cols, Data: big.Data[offs[i]*big.Cols : offs[i+1]*big.Cols]}
		}
	}
	for i, c := range cs {
		out[i] = make([]float64, hs[i].Cols)
		readout(out[i], hs[i].Data, c.Levels[m.Cfg.Layers].Size)
	}
}
