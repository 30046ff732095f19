//fixture:path github.com/lansearch/lan/internal/pg

// Package pg is a spoofed stand-in for the real internal/pg: the ctxprop
// sink keys are pinned to the real import paths, so this fixture declares
// the same package path, type names and sink methods to exercise them.
package pg

import "context"

// DistCache mirrors the real per-query distance cache; Dist and Prefetch
// are ctxprop sinks.
type DistCache struct{ evals int }

func (c *DistCache) Dist(g int) float64 {
	c.evals++
	return float64(g)
}

func (c *DistCache) Prefetch(ctx context.Context, ids []int) {
	for range ids {
		if ctx.Err() != nil {
			return
		}
		c.evals++
	}
}

// WorkerPool mirrors the index-build worker pool; run is a ctxprop sink.
type WorkerPool struct{ ch chan func() }

func (p *WorkerPool) run(f func()) { p.ch <- f }

// Submit is the exported contextful surface over the sink.
func (p *WorkerPool) Submit(ctx context.Context, f func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p.run(f)
	return nil
}
