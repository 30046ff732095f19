package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, parsed and type-checked module package.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	Standard   bool
	GoFiles    []string
}

// Load resolves the given package patterns (e.g. "./...") relative to dir
// with the go command, then parses and type-checks every matched
// non-standard package from source. `go list -deps` emits packages in
// dependency order (dependencies before dependents), so in-module imports
// are satisfied with the already-source-checked *types.Package of the
// dependency rather than its export data; standard-library imports come
// from compiler export data produced by `go list -export`. Source-checking
// the whole module under one importer gives every type and object a single
// identity across packages — the property metricname's module-wide
// dead-family sweep relies on to match a variable or struct field seen from
// two different packages. Only non-test Go files
// are loaded: the analyzers enforce library invariants, and tests
// legitimately use panics, exact float expectations and ad-hoc RNG
// seeding.
func Load(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=Dir,ImportPath,Export,Standard,GoFiles",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, stderr.String())
	}

	exports := make(map[string]string)
	var metas []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var m listedPackage
		if err := dec.Decode(&m); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if m.Export != "" {
			exports[m.ImportPath] = m.Export
		}
		if !m.Standard {
			metas = append(metas, m)
		}
	}

	fset := token.NewFileSet()
	exp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(f)
	})
	imp := &moduleImporter{export: exp, checked: make(map[string]*types.Package)}

	var pkgs []*Package
	for _, m := range metas {
		pkg, err := checkPackage(fset, imp, m.ImportPath, m.Dir, m.GoFiles)
		if err != nil {
			return nil, err
		}
		imp.checked[m.ImportPath] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// moduleImporter satisfies in-module imports with the source-checked
// *types.Package recorded by Load (dependency order guarantees it exists
// by the time a dependent asks for it) and everything else — the standard
// library — from export data. Returning the same *types.Package for every
// importer of a module package is what keeps object identity: a package
// variable or struct-field *types.Var observed from two different packages
// is one pointer, so the module-wide analyzers can use plain map keys
// instead of fragile name matching.
type moduleImporter struct {
	export  types.Importer
	checked map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.export.Import(path)
}

// checkPackage parses the named files and type-checks them as one package.
func checkPackage(fset *token.FileSet, imp types.Importer, path, dir string, names []string) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}
