package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/lansearch/lan"
	"github.com/lansearch/lan/ged"
	"github.com/lansearch/lan/graph"
	"github.com/lansearch/lan/internal/dataset"
	"github.com/lansearch/lan/internal/pg"
)

// Recall is taken on a pinned query set: the first w.recall queries of
// every run come from pinnedSeed, not from --seed, and their brute-force
// k-NN truth is committed in testdata/truth.json. So recall_at_10 says
// something about the index and not about which queries a seed drew, and a
// run pays for three brute-force scans instead of w.recall.
const (
	pinnedSeed   = 20220501
	truthChecked = 3 // pinned queries whose truth every run recomputes
)

// truthPath is the committed truth, keyed by dataset name.
func truthPath() string {
	return filepath.Join(repoRoot(), "benchmark", "testdata", "truth.json")
}

func loadTruth() (map[string][][]pg.Result, error) {
	all := make(map[string][][]pg.Result)
	data, err := os.ReadFile(truthPath())
	if errors.Is(err, os.ErrNotExist) {
		return all, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", truthPath(), err)
	}
	return all, nil
}

// bruteForce scans the live graphs of db for the k-NN of each query, on
// two workers.
func bruteForce(db graph.Database, dead map[int]bool, metric ged.Metric, queries []*graph.Graph) [][]pg.Result {
	live := db
	if len(dead) > 0 {
		live = nil
		for id, g := range db {
			if !dead[id] {
				live = append(live, g)
			}
		}
	}
	out := make([][]pg.Result, len(queries))
	for i, gt := range dataset.ComputeGroundTruth(live, queries, metric, topK) {
		for _, r := range gt.Results {
			// The scan numbers graphs by position in live; map back to ids.
			out[i] = append(out[i], pg.Result{ID: live[r.ID].ID, Dist: r.Dist})
		}
	}
	return out
}

func sameTruth(a, b []pg.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !sameDist(a[i].Dist, b[i].Dist) {
			return false
		}
	}
	return true
}

// pinnedTruth returns the truth of the pinned queries over the generated
// database. It recomputes a few entries of the committed file; if one has
// drifted (the metric changed since the file was written) or the file has
// no entry for this dataset, it says so loudly and recomputes everything.
func (b *bench) pinnedTruth() (truth [][]pg.Result, mismatch float64, err error) {
	pinned := b.queries[:b.w.recall]
	all, err := loadTruth()
	if err != nil {
		return nil, 0, err
	}
	// The file may pin more queries than this workload asks; its pinned
	// queries are the first of them.
	if truth = all[b.w.spec.Name]; len(truth) >= len(pinned) {
		truth = truth[:len(pinned)]
		var idx []int
		for i := 0; i < truthChecked; i++ {
			idx = append(idx, int((uint64(b.seed)+uint64(i)*7)%uint64(len(pinned))))
		}
		fresh := bruteForce(b.db, nil, b.query.inner, b.graphs(idx))
		bad := 0
		for i, q := range idx {
			if !sameTruth(fresh[i], truth[q]) {
				bad++
			}
		}
		if bad == 0 {
			return truth, 0, nil
		}
		mismatch = float64(bad) / truthChecked
		fmt.Fprintf(os.Stderr, "benchmark: WARNING: %s: committed truth for %s no longer matches brute force (%d of %d checked); recomputing it all — run -pin-truth and commit the result\n",
			b.w.name, b.w.spec.Name, bad, truthChecked)
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: WARNING: %s: no committed truth for %s; computing it — run -pin-truth and commit the result\n",
			b.w.name, b.w.spec.Name)
	}
	return bruteForce(b.db, nil, b.query.inner, pinned), mismatch, nil
}

// recallOf is the mean recall@10 of the replies against the truth.
func recallOf(replies [][]lan.Result, truth [][]pg.Result) float64 {
	sum := 0.0
	for i, reply := range replies {
		got := make([]pg.Result, len(reply))
		for j, r := range reply {
			got[j] = pg.Result{ID: r.ID, Dist: r.Dist}
		}
		sum += dataset.Recall(got, truth[i])
	}
	return sum / float64(len(replies))
}

// pinTruth brute-forces the pinned queries of every dataset and writes
// testdata/truth.json.
func pinTruth() error {
	all := make(map[string][][]pg.Result)
	for _, w := range workloads {
		if all[w.spec.Name] != nil {
			continue
		}
		db := w.spec.Generate()
		pinned, err := makeQueries(db, w.spec, 0, w.recall, pinnedSeed)
		if err != nil {
			return err
		}
		_, metric := w.metrics()
		all[w.spec.Name] = bruteForce(db, nil, newMeter(metric, nil).inner, pinned)
		fmt.Fprintf(os.Stderr, "pinned %d queries on %s\n", len(pinned), w.spec.Name)
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(truthPath()), 0o755); err != nil {
		return err
	}
	return os.WriteFile(truthPath(), append(data, '\n'), 0o644)
}
