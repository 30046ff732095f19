// Command lan-lint runs the project's static-analysis suite (package
// internal/analysis: floatcmp, globalrand, libpanic, metricname) over the
// given package patterns and exits nonzero when any finding survives the
// allow-comment suppressions. It enforces the determinism invariants LAN's
// exactness claims rest on, no panics in public packages, and the metric
// naming convention; see DESIGN.md, "Static analysis & determinism policy".
//
// Usage:
//
//	lan-lint [-run floatcmp,globalrand,...] [-json] [-counts] [packages...]
//
// With no package arguments it analyzes ./... — including this command
// and the analysis package themselves, so the lint is self-hosting.
// -json emits the findings as a JSON array on stdout (for CI annotation
// tooling); -counts prints a per-analyzer finding tally to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/lansearch/lan/internal/analysis"
)

func main() {
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the available analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	counts := flag.Bool("counts", false, "print a per-analyzer finding tally to stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: lan-lint [flags] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := analysis.All()
	if *run != "" {
		var err error
		analyzers, err = analysis.ByName(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	findings := analysis.Run(pkgs, analyzers)
	if *jsonOut {
		type jsonFinding struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File:     relativize(cwd, f.Pos.Filename),
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(relativize(cwd, f.String()))
		}
	}
	if *counts {
		tally := make(map[string]int)
		for _, f := range findings {
			tally[f.Analyzer]++
		}
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "%-12s %d\n", a.Name, tally[a.Name])
		}
		if n := tally["framework"]; n > 0 {
			fmt.Fprintf(os.Stderr, "%-12s %d\n", "framework", n)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "lan-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// relativize trims the working directory prefix from a path or finding
// line so output is readable and stable across checkouts.
func relativize(cwd, s string) string {
	return strings.TrimPrefix(s, cwd+string(os.PathSeparator))
}
