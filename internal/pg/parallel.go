package pg

import (
	"sync"
	"sync/atomic"
)

// WorkerPool is a fixed set of helper goroutines that share batches of
// index-addressed work with the goroutine that hands them out, for the
// duration of one index build. Spawning goroutines per candidate batch
// would churn the scheduler at every insertion; the pool amortizes that
// over the whole build. Queries do not use one: they pay their distances
// one call after another (DESIGN.md, "Performance architecture").
//
// A nil *WorkerPool is valid everywhere one is accepted and means
// "evaluate sequentially on the calling goroutine".
type WorkerPool struct {
	// jobs holds at most one hand-off per helper, so the buffer is the
	// helper count.
	jobs chan func()
	wg   sync.WaitGroup
}

// NewWorkerPool returns a pool of n workers: the caller of run plus n-1
// helper goroutines. For n <= 1 it returns nil — the sequential pool — so
// callers can plumb a worker count straight through without
// special-casing.
func NewWorkerPool(n int) *WorkerPool {
	if n <= 1 {
		return nil
	}
	p := &WorkerPool{jobs: make(chan func(), n-1)}
	p.wg.Add(n - 1)
	for i := 0; i < n-1; i++ {
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				job()
			}
		}()
	}
	return p
}

// run calls fn(i) for every i in [0, n) and returns when all calls have:
// the caller and the helpers each pull the next index from one counter, so
// a batch of cheap calls costs one hand-off per helper, not one per call,
// and the caller works instead of sleeping. It waits for the calls, not
// for the helpers: one that wakes after the batch is finished finds the
// counter spent and goes back to sleep without anyone having waited for it.
func (p *WorkerPool) run(n int, fn func(i int)) {
	var next atomic.Int64
	var calls sync.WaitGroup
	calls.Add(n)
	drain := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
			calls.Done()
		}
	}
	for h := 0; h < cap(p.jobs) && h < n-1; h++ {
		select {
		case p.jobs <- drain:
		default:
			// Every helper still has an earlier batch's hand-off to pick
			// up; this batch does without it.
		}
	}
	drain()
	calls.Wait()
}

// Close stops the helpers after the queued jobs drain. Closing a nil pool
// is a no-op.
func (p *WorkerPool) Close() {
	if p == nil {
		return
	}
	close(p.jobs)
	p.wg.Wait()
}
