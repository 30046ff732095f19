package ged

import "sync/atomic"

// arenaGets counts kernel invocations that drew an arena from the pool
// (one per Ensemble.Distance, or per direct Exact/VJ/Hungarian/Beam call);
// arenaNews counts the subset where the pool was empty and a fresh arena
// had to be allocated. Their difference is the reuse count — the quantity
// the zero-alloc steady-state claim rests on.
var (
	arenaGets atomic.Uint64
	arenaNews atomic.Uint64
)

// astarFinished and astarExhausted count the budgeted A* attempts of
// Ensemble.Distance by outcome: exact within ExactBudget, or out of budget
// and on to the approximations.
var (
	astarFinished  atomic.Uint64
	astarExhausted atomic.Uint64
)

// ensembleBest counts the Ensemble.Distance calls that fell back to the
// approximations by the member whose bound they returned: VJ, Hungarian,
// beam, in protocol order.
var ensembleBest [3]atomic.Uint64

// ArenaStats reports the kernel arena pool's behaviour since process
// start: how many invocations reused a pooled arena and how many had to
// allocate one. Safe for concurrent use; values are monotonic.
func ArenaStats() (reused, allocated uint64) {
	gets := arenaGets.Load()
	news := arenaNews.Load()
	if gets < news {
		// A miss may land in news between the two loads; clamp the
		// transient.
		gets = news
	}
	return gets - news, news
}

// AStarStats reports how many of Ensemble.Distance's budgeted A* attempts
// finished inside the budget and how many exhausted it, since process
// start. Safe for concurrent use; values are monotonic.
func AStarStats() (finished, exhausted uint64) {
	return astarFinished.Load(), astarExhausted.Load()
}

// EnsembleStats reports, for the Ensemble.Distance calls whose A* did not
// finish (or was not attempted), how many returned the bound of each
// member: the first in protocol order — VJ, Hungarian, beam — among those
// that attained the minimum. Safe for concurrent use; values are monotonic
// since process start.
func EnsembleStats() (vj, hungarian, beam uint64) {
	return ensembleBest[0].Load(), ensembleBest[1].Load(), ensembleBest[2].Load()
}
