package mutable

import "github.com/lansearch/lan/internal/obs"

// Optimizer tuning. One pass holds the write lock, so both knobs bound
// writer-side latency: at most optimizerBatch churned nodes are
// re-wired per pass and a pass stops charging new work once
// optimizerBudget distance computations are spent (the memoizing build
// metric makes repeat visits cheaper than the budget suggests).
const (
	optimizerBatch  = 8
	optimizerBudget = 256
)

// ensureOptimizerLocked lazily starts the background optimizer. It is
// started on the first write — never at construction — so an index that
// is only read holds no goroutine and needs no Close for leak-freedom.
func (x *Index) ensureOptimizerLocked() {
	if x.optOn || x.closed {
		return
	}
	x.optOn = true
	x.stop = make(chan struct{})
	x.kick = make(chan struct{}, 1)
	x.wg.Add(1)
	go x.optimizerLoop()
}

// kickLocked nudges the optimizer without blocking: a pending kick
// already covers this write's churn.
func (x *Index) kickLocked() {
	if !x.optOn {
		return
	}
	select {
	case x.kick <- struct{}{}:
	default:
	}
}

// optimizerLoop drains the churn queue in budgeted passes whenever a
// write kicks it, and exits when Close closes the stop channel (the
// WaitGroup lets Close join it).
func (x *Index) optimizerLoop() {
	defer x.wg.Done()
	for {
		select {
		case <-x.stop:
			return
		case <-x.kick:
		}
		for {
			select {
			case <-x.stop:
				return
			default:
			}
			if !x.optimizeOnce() {
				break
			}
		}
	}
}

// optimizeOnce runs one budgeted pass under the write lock; it reports
// whether churn remains so callers keep draining.
func (x *Index) optimizeOnce() bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.optimizePassLocked()
}

// optimizePassLocked pops up to optimizerBatch nodes off the churn
// queue and re-runs neighbor selection around each (2-hop candidates,
// diversity heuristic, symmetric rewiring) until the distance budget is
// spent. Any rewiring publishes a new epoch so readers pick up the
// repaired edges. Tombstoned nodes are skipped — their neighborhoods
// were enqueued separately — but stay navigable until Compact.
func (x *Index) optimizePassLocked() bool {
	if len(x.churn) == 0 {
		return false
	}
	budget := optimizerBudget
	popped := 0
	rewired := false
	for len(x.churn) > 0 && budget > 0 && popped < optimizerBatch {
		u := x.churn[0]
		x.churn = x.churn[1:]
		delete(x.inChurn, u)
		popped++
		if u >= len(x.dead) || x.dead[u] {
			continue
		}
		// See Insert for why write application is uncancellable.
		budget -= x.eng.Index.Reselect(u)
		rewired = true
	}
	if rewired {
		x.epoch++
		x.publishLocked()
		obs.Mutate().OptimizerPasses.Inc()
	}
	return len(x.churn) > 0
}

// enqueueChurnLocked queues node u for edge optimization (dedup'd).
func (x *Index) enqueueChurnLocked(u int) {
	if x.inChurn[u] {
		return
	}
	x.inChurn[u] = true
	x.churn = append(x.churn, u)
}

// Quiesce synchronously drains the churn queue, running optimizer
// passes on the caller's goroutine until no repair work remains. After
// it returns (and absent concurrent writes) the graph is exactly what
// the background optimizer would eventually converge to — the hook that
// makes incremental-build quality deterministic and testable.
func (x *Index) Quiesce() {
	for x.optimizeOnce() {
	}
}
