package pg

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// WorkerPool is a fixed set of helper goroutines that share batches of
// index-addressed work with the goroutine that hands them out. It is the
// offline build's one fan-out: the PG build's candidate-beam distances,
// the training distance table, the node-embedding precompute and the
// ground truth all run on one. Spawning goroutines per candidate batch
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

// NewWorkerPool returns a pool of n workers: the caller of Run plus n-1
// helper goroutines; n <= 0 means runtime.NumCPU(). For n == 1 it returns
// nil — the sequential pool — so callers can plumb a worker count
// straight through without special-casing.
func NewWorkerPool(n int) *WorkerPool {
	if n <= 0 {
		n = runtime.NumCPU()
	}
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

// Run calls fn(i) for every i in [0, n) and returns when all calls have:
// the caller and the helpers each pull the next index from one counter, so
// a batch of cheap calls costs one hand-off per helper, not one per call,
// and the caller works instead of sleeping. It waits for the calls, not
// for the helpers: one that wakes after the batch is finished finds the
// counter spent and goes back to sleep without anyone having waited for it.
// On a nil pool the caller makes every call itself, in order.
//
// A panicking call does not kill its helper or hang the batch: the calls
// not yet started are skipped, and once the batch is done the first panic
// is raised again on the caller, where its deferred functions and recovers
// can see it.
func (p *WorkerPool) Run(n int, fn func(i int)) {
	if p == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next  atomic.Int64
		calls sync.WaitGroup
		fault atomic.Pointer[any]
	)
	call := func(i int) {
		defer calls.Done()
		defer func() {
			if r := recover(); r != nil {
				fault.CompareAndSwap(nil, &r)
			}
		}()
		if fault.Load() == nil {
			fn(i)
		}
	}
	calls.Add(n)
	drain := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			call(i)
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
	if r := fault.Load(); r != nil {
		panic(*r)
	}
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
