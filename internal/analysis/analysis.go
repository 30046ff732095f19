// Package analysis is a small, stdlib-only static-analysis framework plus
// the four project-specific analyzers lan-lint runs (see DESIGN.md,
// "Static analysis & determinism policy"). floatcmp and globalrand guard
// determinism: Lemma 1/Theorem 1 exactness of the pruned routing and
// Theorem 2 bit-identity of compressed embeddings collapse if float
// equality or global randomness silently perturbs results. libpanic keeps
// panics out of the public packages, and metricname keeps metric names and
// families consistent. Invariants that a test, go vet or a -race run
// already pins (allocation-free kernels, context propagation, goroutine
// exits, atomic hygiene) are left to those. The framework mirrors the
// shape of golang.org/x/tools' go/analysis but is built purely on go/ast,
// go/parser and go/types, per the repo's toolchain-only rule.
//
// Suppressions: a finding is silenced by a comment of the form
//
//	//lint:allow <name> <reason...>
//
// placed either on the offending line or on the line directly above it.
// The reason is mandatory free text — the annotation is the audit trail
// for why the invariant does not apply, so a reason-less or
// unknown-analyzer allow is itself reported as a framework finding.
//
// Analyzers come in two shapes: per-package ones (Run) see one
// type-checked package at a time, and module-wide ones (RunGlobal) see
// every loaded package at once, which the shared-identity loader (load.go)
// makes possible without golang.org/x/tools.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Per-package analyzers set Run, which
// inspects one type-checked package via its Pass; module-wide analyzers
// set RunGlobal, which sees every loaded package. An analyzer may set both
// (metricname: per-package naming rules plus the global dead-family
// sweep).
type Analyzer struct {
	// Name is the identifier used in findings and //lint:allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run executes the analyzer over one package (may be nil).
	Run func(*Pass)
	// RunGlobal executes the analyzer once over the whole module (may be
	// nil).
	RunGlobal func(*GlobalPass)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{FloatCmp, GlobalRand, LibPanic, MetricName}
}

// frameworkName is the pseudo-analyzer name attached to findings about the
// suppression comments themselves; they are not suppressible.
const frameworkName = "framework"

// ByName resolves a comma-separated list of analyzer names.
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analysis: no analyzers selected")
	}
	return out, nil
}

// Finding is one reported violation.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Path is the package import path.
	Path string

	suppress suppressionIndex
	findings *[]Finding
}

// IsCommand reports whether the package is a main package.
func (p *Pass) IsCommand() bool { return p.Pkg.Name() == "main" }

// IsInternal reports whether the package lives under an internal/ tree.
func (p *Pass) IsInternal() bool {
	return strings.Contains(p.Path, "/internal/") || strings.HasSuffix(p.Path, "/internal")
}

// IsPublicLibrary reports whether the package is part of the importable
// public API surface: a non-main package outside internal/.
func (p *Pass) IsPublicLibrary() bool { return !p.IsCommand() && !p.IsInternal() }

// Reportf records a finding at pos unless an applicable //lint:allow
// comment suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppress.allows(p.Analyzer.Name, position) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// GlobalPass carries the whole loaded module through one module-wide
// analyzer.
type GlobalPass struct {
	Analyzer *Analyzer
	// Pkgs are all loaded packages in dependency order.
	Pkgs []*Package

	suppress suppressionIndex
	findings *[]Finding
}

// Reportf records a finding at pos (resolved through pkg's file set)
// unless an applicable //lint:allow comment suppresses it.
func (p *GlobalPass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	position := pkg.Fset.Position(pos)
	if p.suppress.allows(p.Analyzer.Name, position) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the given analyzers over the loaded packages and returns
// all findings sorted by position. Module-wide analyzers run once over all
// packages; per-package analyzers run per package. Run also audits every //lint:allow comment: one that names an
// unknown analyzer or omits the reason text is reported as a
// non-suppressible "framework" finding.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	suppress := make(suppressionIndex)
	for _, pkg := range pkgs {
		buildSuppressionIndex(pkg.Fset, pkg.Files, suppress)
		auditAllowComments(pkg, &findings)
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Path:     pkg.Path,
				suppress: suppress,
				findings: &findings,
			}
			a.Run(pass)
		}
	}
	for _, a := range analyzers {
		if a.RunGlobal == nil {
			continue
		}
		a.RunGlobal(&GlobalPass{
			Analyzer: a,
			Pkgs:     pkgs,
			suppress: suppress,
			findings: &findings,
		})
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// suppressionIndex maps file -> line -> analyzer names allowed on that
// line (including lines directly below an allow comment).
type suppressionIndex map[string]map[int]map[string]bool

func (s suppressionIndex) allows(analyzer string, pos token.Position) bool {
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	return lines[pos.Line][analyzer]
}

const allowPrefix = "//lint:allow"

// buildSuppressionIndex records every //lint:allow comment in files into
// idx (filename-keyed, so one index can span packages).
func buildSuppressionIndex(fset *token.FileSet, files []*ast.File, idx suppressionIndex) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := idx[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					idx[pos.Filename] = lines
				}
				for _, name := range strings.Split(fields[0], ",") {
					// The comment covers its own line (trailing style) and
					// the next line (comment-above style).
					for _, line := range []int{pos.Line, pos.Line + 1} {
						if lines[line] == nil {
							lines[line] = make(map[string]bool)
						}
						lines[line][name] = true
					}
				}
			}
		}
	}
}

// auditAllowComments enforces the suppression contract: every
// //lint:allow must name known analyzers and carry a reason. Violations
// are "framework" findings, deliberately outside the suppression
// machinery — an allow comment cannot vouch for itself.
func auditAllowComments(pkg *Package, findings *[]Finding) {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	report := func(pos token.Pos, format string, args ...any) {
		*findings = append(*findings, Finding{
			Pos:      pkg.Fset.Position(pos),
			Analyzer: frameworkName,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					report(c.Pos(), "bare //lint:allow: write //lint:allow <analyzer> <reason>")
					continue
				}
				for _, name := range strings.Split(fields[0], ",") {
					if !known[name] {
						report(c.Pos(), "//lint:allow names unknown analyzer %q", name)
					}
				}
				if len(fields) < 2 {
					report(c.Pos(), "//lint:allow %s has no reason; the reason is the audit trail for why the invariant does not apply", fields[0])
				}
			}
		}
	}
}

// enclosingFuncName returns the name of the innermost function declaration
// containing pos ("" when not inside one, e.g. a package-level var
// initializer). Methods report their bare name.
func enclosingFuncName(files []*ast.File, pos token.Pos) string {
	for _, f := range files {
		if pos < f.Pos() || pos >= f.End() {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if pos >= fd.Pos() && pos < fd.End() {
				return fd.Name.Name
			}
		}
	}
	return ""
}

// usesPackage reports whether ident denotes an import of the package with
// the given path (e.g. math/rand) according to the type info.
func usesPackage(info *types.Info, ident *ast.Ident, path string) bool {
	obj := info.Uses[ident]
	pn, ok := obj.(*types.PkgName)
	return ok && pn.Imported().Path() == path
}
