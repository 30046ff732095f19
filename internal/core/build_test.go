package core

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/internal/models"
	"github.com/lansearch/lan/internal/nn"
)

// paramsDiff names the first parameter on which two registries differ in
// name, shape or any weight (==), or returns "" when they are identical.
func paramsDiff(a, b *nn.Params) string {
	if !reflect.DeepEqual(a.Names(), b.Names()) {
		return "parameter names"
	}
	av, bv := a.All(), b.All()
	for i, name := range a.Names() {
		if !reflect.DeepEqual(av[i].Data, bv[i].Data) {
			return name
		}
	}
	return ""
}

// TestBuildIdenticalAcrossWorkers pins that Workers only decides what
// runs beside what: one worker trains M_rk, then M_nh, k-means and M_c on
// the caller; two or more train M_rk on a goroutine of its own beside the
// other three (and fan the PG build, the distance table and the embedding
// precompute out) — and the engine comes out the same, weight for weight.
// Under -race this is also the test that sees both branches log through
// one Train.Logf.
func TestBuildIdenticalAcrossWorkers(t *testing.T) {
	spec := dataset.AIDS(0.001)
	db := spec.Generate()
	queries := dataset.Workload(db, spec, 26, 5)
	train, test := queries[:6], queries[6:]

	build := func(workers int) (*Engine, int64) {
		var logged atomic.Int64
		eng, err := Build(db, train, Options{
			M: 5, Dim: 8, GammaKNN: 5, Workers: workers, Seed: 1,
			Train: models.TrainOptions{Epochs: 2, LR: 0.01,
				Logf: func(string, ...interface{}) { logged.Add(1) }},
		})
		if err != nil {
			t.Fatalf("Build(Workers: %d): %v", workers, err)
		}
		return eng, logged.Load()
	}

	want, wantLogged := build(1)
	if wantLogged != 3*2 {
		t.Fatalf("sequential build logged %d epochs, want 2 for each of three models", wantLogged)
	}
	for _, workers := range []int{2, 4} {
		got, logged := build(workers)
		if logged != wantLogged {
			t.Errorf("Workers %d: %d epochs logged, %d with one worker", workers, logged, wantLogged)
		}
		if !reflect.DeepEqual(got.Index.PG.Adj, want.Index.PG.Adj) || !reflect.DeepEqual(got.Index.Upper, want.Index.Upper) ||
			!reflect.DeepEqual(got.Index.Level, want.Index.Level) || got.Index.Entry != want.Index.Entry {
			t.Errorf("Workers %d: proximity graph differs from the one-worker build", workers)
		}
		if got.GammaStar != want.GammaStar {
			t.Errorf("Workers %d: gamma* %v, %v with one worker", workers, got.GammaStar, want.GammaStar)
		}
		for _, m := range []struct {
			name      string
			got, want *nn.Params
		}{
			{"M_rk", got.Mrk.Params, want.Mrk.Params},
			{"M_nh", got.Mnh.Params, want.Mnh.Params},
			{"M_c", got.Mc.Params, want.Mc.Params},
		} {
			if diff := paramsDiff(m.got, m.want); diff != "" {
				t.Errorf("Workers %d: %s differs from the one-worker build at %s", workers, m.name, diff)
			}
		}
		if !reflect.DeepEqual(got.Mrk.NodeEmbeddings(), want.Mrk.NodeEmbeddings()) {
			t.Errorf("Workers %d: node embeddings differ from the one-worker build", workers)
		}
		if !reflect.DeepEqual(got.Mc.Clusters(), want.Mc.Clusters()) {
			t.Errorf("Workers %d: clustering differs from the one-worker build", workers)
		}
		so := SearchOptions{K: 5, Beam: 8, Initial: LANIS, Routing: LANRoute}
		for qi, q := range test {
			gotRes, gotStats, err := got.Search(context.Background(), q, so)
			if err != nil {
				t.Fatal(err)
			}
			wantRes, wantStats, err := want.Search(context.Background(), q, so)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRes, wantRes) || gotStats.NDC != wantStats.NDC {
				t.Errorf("Workers %d, query %d: results %v (NDC %d), one worker %v (NDC %d)",
					workers, qi, gotRes, gotStats.NDC, wantRes, wantStats.NDC)
			}
		}
	}
}

// TestBuildRecoversRankerPanic injects a panic into M_rk's training — the
// branch Build runs on a goroutine of its own, where nothing could catch
// it — through the one piece of caller code that runs there, Train.Logf,
// and requires the build to fail with an error naming the branch, on the
// caller (Workers 1) and on the goroutine (Workers 2) alike. Build
// returning at all shows the goroutine ended: it waits for it.
func TestBuildRecoversRankerPanic(t *testing.T) {
	spec := dataset.AIDS(0.001)
	db := spec.Generate()
	train := dataset.Workload(db, spec, 6, 5)
	inRankerTraining := func() bool {
		pcs := make([]uintptr, 32)
		frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
		for {
			f, more := frames.Next()
			if strings.HasSuffix(f.Function, "(*NeighborRanker).Train") {
				return true
			}
			if !more {
				return false
			}
		}
	}
	for _, workers := range []int{1, 2} {
		eng, err := Build(db, train, Options{
			M: 5, Dim: 8, GammaKNN: 5, Workers: workers, Seed: 1,
			Train: models.TrainOptions{Epochs: 1, LR: 0.01, Logf: func(string, ...interface{}) {
				if inRankerTraining() {
					panic("injected")
				}
			}},
		})
		if eng != nil || err == nil || !strings.HasPrefix(err.Error(), "core: training M_rk: panic: injected") {
			t.Errorf("Workers %d: Build = %v, %v; want a nil engine and an error starting \"core: training M_rk: panic: injected\"", workers, eng, err)
		}
	}
}

// panicOnCall returns a Hungarian metric that panics on its nth call, on
// whichever goroutine makes it.
func panicOnCall(n int64) ged.Metric {
	var calls atomic.Int64
	return ged.MetricFunc(func(g, h *graph.Graph) float64 {
		if calls.Add(1) == n {
			panic("injected")
		}
		return ged.Hungarian(g, h)
	})
}

// TestBuildRecoversMetricPanic makes the build metric, and then the query
// metric, panic on its 50th call: inside the PG build and inside the
// distance table, on the caller at Workers 1 and on whichever of the
// caller and the pool's helper draws that call at Workers 2. Build must
// return an error naming the step, and every goroutine it started must
// have ended by then.
func TestBuildRecoversMetricPanic(t *testing.T) {
	spec := dataset.AIDS(0.001)
	db := spec.Generate()
	train := dataset.Workload(db, spec, 6, 5)
	for _, c := range []struct {
		name, want string
		opts       func(*Options)
	}{
		{"BuildMetric", "core: building the proximity graph: panic: injected", func(o *Options) { o.BuildMetric = panicOnCall(50) }},
		{"QueryMetric", "core: distance table: panic: injected", func(o *Options) { o.QueryMetric = panicOnCall(50) }},
	} {
		for _, workers := range []int{1, 2} {
			base := runtime.NumGoroutine()
			opts := Options{M: 5, Dim: 8, GammaKNN: 5, Workers: workers, Seed: 1,
				Train: models.TrainOptions{Epochs: 1, LR: 0.01}}
			c.opts(&opts)
			eng, err := Build(db, train, opts)
			if eng != nil || err == nil || !strings.HasPrefix(err.Error(), c.want) {
				t.Errorf("%s, Workers %d: Build = %v, %v; want a nil engine and an error starting %q", c.name, workers, eng, err, c.want)
			}
			// A helper that has signalled Close is gone a moment later.
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
				time.Sleep(time.Millisecond)
			}
			if n > base {
				t.Errorf("%s, Workers %d: %d goroutines before Build, %d after", c.name, workers, base, n)
			}
		}
	}
}
