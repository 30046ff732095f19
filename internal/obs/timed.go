package obs

import (
	"time"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
)

// TimedMetric wraps a ged.Metric and accumulates wall time spent in
// Distance. One TimedMetric serves one search, which pays its distances
// one call after another on its own goroutine; it is not safe for
// concurrent use.
type TimedMetric struct {
	M       ged.Metric
	elapsed time.Duration
}

// NewTimedMetric wraps m.
func NewTimedMetric(m ged.Metric) *TimedMetric { return &TimedMetric{M: m} }

// Distance computes m's distance and meters its wall time.
func (t *TimedMetric) Distance(a, b *graph.Graph) float64 {
	start := time.Now()
	d := t.M.Distance(a, b)
	t.elapsed += time.Since(start)
	return d
}

// Elapsed returns the accumulated Distance wall time.
func (t *TimedMetric) Elapsed() time.Duration { return t.elapsed }
