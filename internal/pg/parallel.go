package pg

import "sync"

// WorkerPool is a fixed set of goroutines that evaluate closures for the
// duration of one index build. Spawning goroutines per candidate batch
// would churn the scheduler at every insertion; the pool amortizes that
// over the whole build. Queries do not use one: they pay their distances
// one call after another (DESIGN.md, "Performance architecture").
//
// A nil *WorkerPool is valid everywhere one is accepted and means
// "evaluate sequentially on the calling goroutine".
type WorkerPool struct {
	jobs chan func()
	wg   sync.WaitGroup
}

// NewWorkerPool starts n worker goroutines. For n <= 1 it returns nil —
// the sequential pool — so callers can plumb a worker count straight
// through without special-casing.
func NewWorkerPool(n int) *WorkerPool {
	if n <= 1 {
		return nil
	}
	p := &WorkerPool{jobs: make(chan func())}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				job()
			}
		}()
	}
	return p
}

// submit enqueues one job; it blocks until a worker is free to take it.
func (p *WorkerPool) submit(job func()) { p.jobs <- job }

// Close stops the workers after the queued jobs drain. Closing a nil pool
// is a no-op.
func (p *WorkerPool) Close() {
	if p == nil {
		return
	}
	close(p.jobs)
	p.wg.Wait()
}
