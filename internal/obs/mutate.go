package obs

import "sync"

// MutateMetrics is the write-path family set of the mutable index:
// streaming inserts and soft deletes, each with the edge repair it runs
// before it returns.
type MutateMetrics struct {
	// Inserts and Deletes count applied writes (a rejected write — bad
	// id, nil graph — records nothing).
	Inserts *Counter
	Deletes *Counter
	// ApplySeconds observes the wall time of one applied write, its edge
	// repair and snapshot publication included — the latency bound the
	// write path promises (no full-rebuild work per op).
	ApplySeconds *Histogram
}

var (
	mutateOnce    sync.Once
	mutateMetrics *MutateMetrics
)

// Mutate returns the process-wide write-path metrics, registering them
// on the default registry on first use.
func Mutate() *MutateMetrics {
	mutateOnce.Do(func() {
		r := Default()
		mutateMetrics = &MutateMetrics{
			Inserts: r.Counter("lan_mutate_inserts_total",
				"Graphs inserted into a mutable index."),
			Deletes: r.Counter("lan_mutate_deletes_total",
				"Graphs soft-deleted (tombstoned) in a mutable index."),
			ApplySeconds: r.Histogram("lan_mutate_apply_seconds",
				"Wall time to apply one insert or delete, its edge repair and snapshot publication included.",
				ExpBuckets(1e-5, 4, 12)),
		}
	})
	return mutateMetrics
}
