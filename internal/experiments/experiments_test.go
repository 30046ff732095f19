package experiments

import (
	"bytes"
	"strings"
	"testing"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/internal/cg"
	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/internal/models"
)

// tinyProtocol keeps experiment smoke tests fast.
func tinyProtocol() Protocol {
	return Protocol{
		Scale:       0.003,
		Queries:     15,
		K:           5,
		Beams:       []int{6, 12},
		QueryMetric: ged.MetricFunc(ged.Hungarian),
		TrainEpochs: 2,
		Dim:         8,
		Seed:        1,
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf, tinyProtocol())
	out := buf.String()
	for _, name := range []string{"AIDS", "LINUX", "PUBCHEM", "SYN"} {
		if !strings.Contains(out, name) {
			t.Fatalf("Table1 missing %s:\n%s", name, out)
		}
	}
}

// TestEnvEngineUsesCG: every figure but the CG ablation measures the
// paper's system, so the engine NewEnv builds must run its models on
// compressed GNN-graphs (Sec. VI) — graph for graph the groups cg.Build
// makes, and on this database fewer than the raw graphs' nodes.
func TestEnvEngineUsesCG(t *testing.T) {
	p := tinyProtocol()
	p.Scale, p.Queries, p.TrainEpochs = 0.001, 6, 1
	env, err := NewEnv(p, dataset.AIDS(p.Scale))
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	store := env.Engine.Store
	nodes, groups := 0, 0
	for _, g := range env.DB {
		got, want := store.For(g), cg.Build(g, models.Layers, store.Vocab)
		for l := range want.Levels {
			if len(got.Levels[l].Size) != len(want.Levels[l].Size) {
				t.Fatalf("graph %d, level %d: %d groups; cg.Build makes %d", g.ID, l, len(got.Levels[l].Size), len(want.Levels[l].Size))
			}
		}
		nodes += g.N()
		groups += len(want.Levels[0].Size)
	}
	if groups >= nodes {
		t.Fatalf("%d level-0 groups for %d nodes: nothing to compress, the check above is vacuous", groups, nodes)
	}
}

func TestFig5Through7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping in -short mode: runs the full figure protocol end to end (~20s)")
	}
	p := tinyProtocol()
	env, err := NewEnv(p, dataset.AIDS(p.Scale))
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	for name, fn := range map[string]func(*Env) []Point{
		"fig5": Fig5, "fig6": Fig6, "fig7": Fig7,
	} {
		pts := fn(env)
		if len(pts) != 3*len(p.Beams) {
			t.Fatalf("%s: %d points; want %d", name, len(pts), 3*len(p.Beams))
		}
		methods := map[string]bool{}
		for _, pt := range pts {
			methods[pt.Method] = true
			if pt.Recall < 0 || pt.Recall > 1 {
				t.Fatalf("%s: recall out of range: %+v", name, pt)
			}
			if pt.QPS <= 0 || pt.AvgNDC <= 0 {
				t.Fatalf("%s: degenerate point %+v", name, pt)
			}
		}
		if len(methods) != 3 {
			t.Fatalf("%s: methods = %v", name, methods)
		}
	}
	// Fig 8 on the same env.
	row := Fig8(env)
	if row.Precision < 0 || row.Precision > 1 {
		t.Fatalf("fig8 precision %v", row.Precision)
	}
}

// TestFig12SpeedupShape holds Fig. 12 to its shape: CG below raw in
// Theorem 3's counted cost and HAG's plan further from CG than raw is
// from it, and the kernel's wall-clock CG speedup above 1. The speedup is
// the median, over 201 alternating rounds, of one round's raw/CG time
// ratio, so drift and other processes' load weigh on both sides of every
// ratio and a slow round moves the median by one place at most.
func TestFig12SpeedupShape(t *testing.T) {
	p := tinyProtocol()
	row := Fig12(p, dataset.AIDS(p.Scale), 16)
	if row.CGPerPair <= 0 || row.RawPerPair <= 0 {
		t.Fatalf("degenerate timings: %+v", row)
	}
	// The CG cost (Theorem 3 units) must be below the raw cost; HAG only
	// trims aggregation edges.
	if row.CGCost >= row.RawCost {
		t.Fatalf("CG cost %d >= raw %d", row.CGCost, row.RawCost)
	}
	t.Logf("CG speedup %.3fx; cost ratios CG %.2fx, HAG %.2fx", row.CGSpeedup, row.CGCostRatio(), row.HAGCostRatio())
	// Wall-clock CG speedup should be visible (>1x) on molecule graphs.
	if row.CGSpeedup <= 1 {
		t.Fatalf("no CG speedup (%0.2fx): %+v", row.CGSpeedup, row)
	}
	// HAG cannot approach CG's saving (it keeps all matmul rows).
	if row.HAGCost > row.RawCost || row.HAGCostRatio() >= row.CGCostRatio() {
		t.Fatalf("HAG cost ratio %0.2fx vs CG %0.2fx (raw %d, HAG %d)", row.HAGCostRatio(), row.CGCostRatio(), row.RawCost, row.HAGCost)
	}
}

func TestRunUnknownName(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, "nope", tinyProtocol()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunTable1AndFig12(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, "tab1", tinyProtocol()); err != nil {
		t.Fatalf("tab1: %v", err)
	}
	if !strings.Contains(buf.String(), "Table I") {
		t.Fatalf("missing header:\n%s", buf.String())
	}
}

func TestNamesListed(t *testing.T) {
	names := Names()
	if len(names) != 10 || names[0] != "tab1" || names[len(names)-1] != "all" {
		t.Fatalf("Names = %v", names)
	}
}
