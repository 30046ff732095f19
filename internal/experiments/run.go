package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"github.com/lansearch/lan/internal/dataset"
)

func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// envCache memoizes environments per spec name so that running several
// figures in one Run (-exp all) builds and trains each dataset's engine
// once.
type envCache map[string]*Env

// get returns the memoized environment for spec, building it on first use.
func (c envCache) get(p Protocol, spec dataset.Spec) (*Env, error) {
	if env, ok := c[spec.Name]; ok {
		return env, nil
	}
	env, err := NewEnv(p, spec)
	if err != nil {
		return nil, err
	}
	c[spec.Name] = env
	return env, nil
}

// Run executes one named experiment and writes its rows to w. Valid names
// are tab1 and fig5..fig12; "all" runs everything (sharing dataset
// environments across figures).
func Run(w io.Writer, name string, p Protocol) error {
	return run(w, name, p, envCache{})
}

func run(w io.Writer, name string, p Protocol, cache envCache) error {
	switch name {
	case "tab1":
		Table1(w, p)
	case "fig5", "fig6", "fig7":
		for _, spec := range p.Specs() {
			env, err := cache.get(p, spec)
			if err != nil {
				return err
			}
			var pts []Point
			switch name {
			case "fig5":
				pts = Fig5(env)
			case "fig6":
				pts = Fig6(env)
			case "fig7":
				pts = Fig7(env)
			}
			WritePoints(w, fmt.Sprintf("%s on %s (k=%d)", figTitle(name), spec.Name, p.K), pts)
		}
	case "fig8":
		fmt.Fprintf(w, "Fig 8: accuracy of initial node prediction (M_nh)\n")
		fmt.Fprintf(w, "  %-12s %10s %14s\n", "dataset", "precision", "avg |N̂_Q|")
		for _, spec := range p.Specs() {
			env, err := cache.get(p, spec)
			if err != nil {
				return err
			}
			row := Fig8(env)
			fmt.Fprintf(w, "  %-12s %10.3f %14.1f\n", row.Dataset, row.Precision, row.AvgPredicted)
		}
	case "fig9":
		rows, err := Fig9(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Fig 9: scalability on SYN (one index per fraction)\n")
		fmt.Fprintf(w, "  %-9s %8s %14s %10s %14s %10s\n", "fraction", "graphs", "t(lowBeam)", "recall", "t(highBeam)", "recall")
		for _, r := range rows {
			fmt.Fprintf(w, "  %-9.0f%% %7d %14s %10.3f %14s %10.3f\n",
				r.Fraction*100, r.Graphs,
				r.AvgTimeLow.Round(time.Microsecond), r.RecallLow,
				r.AvgTimeHigh.Round(time.Microsecond), r.RecallHigh)
		}
	case "fig10":
		for _, spec := range p.Specs() {
			env, err := cache.get(p, spec)
			if err != nil {
				return err
			}
			pts, err := Fig10(env)
			if err != nil {
				return err
			}
			WritePoints(w, fmt.Sprintf("Fig 10: CG acceleration on %s", spec.Name), pts)
		}
	case "fig11":
		fmt.Fprintf(w, "Fig 11: query time breakdown (no CG acceleration)\n")
		fmt.Fprintf(w, "  %-12s %18s %12s\n", "dataset", "cross-graph share", "GED share")
		for _, spec := range p.Specs() {
			row, err := Fig11(p, spec)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-12s %17.1f%% %11.1f%%\n", row.Dataset, row.CrossGraphShare*100, row.DistShare*100)
		}
	case "fig12":
		fmt.Fprintf(w, "Fig 12: cross-graph learning speedup per pair (time: median of %d alternating rounds; cost: Theorem 3 units, HAG counted, not timed)\n", fig12Rounds)
		fmt.Fprintf(w, "  %-12s %10s %10s %8s %10s %10s\n", "dataset", "raw", "CG", "CG x", "CG cost x", "HAG cost x")
		for _, spec := range p.Specs() {
			row := Fig12(p, spec, 64)
			fmt.Fprintf(w, "  %-12s %10s %10s %7.2fx %9.2fx %9.2fx\n",
				row.Dataset,
				row.RawPerPair.Round(100*time.Nanosecond),
				row.CGPerPair.Round(100*time.Nanosecond),
				row.CGSpeedup, row.CGCostRatio(), row.HAGCostRatio())
		}
	case "all":
		for _, n := range Names() {
			if n == "all" {
				continue
			}
			if err := run(w, n, p, cache); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	default:
		return fmt.Errorf("experiments: unknown experiment %q (want one of %v)", name, Names())
	}
	return nil
}

// Names lists the runnable experiment ids.
func Names() []string {
	return []string{"tab1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "all"}
}

func figTitle(name string) string {
	switch name {
	case "fig5":
		return "Fig 5: LAN vs HNSW vs L2route"
	case "fig6":
		return "Fig 6: routing with neighbor pruning (HNSW_IS fixed)"
	case "fig7":
		return "Fig 7: initial node selection (LAN_Route fixed)"
	default:
		return name
	}
}
