package main

import (
	"path/filepath"
	"testing"
)

// TestReadsCommittedReports: every committed BENCH_*.json still parses,
// including the five that carry the retired query_points family (unknown
// fields are skipped, not rejected).
func TestReadsCommittedReports(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed BENCH_*.json found (err %v)", err)
	}
	for _, p := range paths {
		if rep, err := read(p); err != nil || len(rep.Points) == 0 {
			t.Errorf("%s: %d points, err %v", p, len(rep.Points), err)
		}
	}
}
