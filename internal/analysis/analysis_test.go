package analysis

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestFixtures runs every analyzer over its golden fixture directory and
// checks the reported findings against the fixtures' `// want "substr"`
// annotations: each annotated line must produce a finding containing the
// substring, and no unannotated line may produce one. Every fixture also
// carries a //lint:allow-suppressed violation, so these tests pin both
// the detection and the suppression path.
func TestFixtures(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		fixture  string
	}{
		{FloatCmp, "floatcmp"},
		{GlobalRand, "globalrand"},
		{GlobalRand, "globalrand_main"},
		{LibPanic, "libpanic"},
		{MetricName, "metricname"},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			runFixture(t, tc.analyzer, tc.fixture)
		})
	}
}

func runFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	pkg := loadFixture(t, fixture)
	findings := Run([]*Package{pkg}, []*Analyzer{a})

	wants := fixtureWants(t, pkg)
	seen := make(map[int]bool)
	for _, f := range findings {
		want, ok := wants[f.Pos.Line]
		if !ok {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		if !strings.Contains(f.Message, want) {
			t.Errorf("finding %q at line %d does not contain %q", f.Message, f.Pos.Line, want)
		}
		seen[f.Pos.Line] = true
	}
	for line, want := range wants {
		if !seen[line] {
			t.Errorf("missing finding at %s line %d (want %q)", fixture, line, want)
		}
	}
}

// loadFixture type-checks the Go files of testdata/<fixture> as one
// package.
func loadFixture(t *testing.T, fixture string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", fixture)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	fset := token.NewFileSet()
	pkg, err := checkPackage(fset, fixtureImporter(t, fset), "fixture/"+fixture, dir, names)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return pkg
}

// fixtureWants extracts `// want "substr"` annotations, keyed by line.
func fixtureWants(t *testing.T, pkg *Package) map[int]string {
	t.Helper()
	fset := pkg.Fset
	wants := make(map[int]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				quoted := strings.TrimSpace(strings.TrimPrefix(text, "want "))
				substr := strings.Trim(quoted, `"`)
				if substr == "" {
					t.Fatalf("empty want annotation at %s", fset.Position(c.Pos()))
				}
				wants[fset.Position(c.Pos()).Line] = substr
			}
		}
	}
	return wants
}

// fixtureExports caches the export-data lookup shared by all fixture
// loads; the fixtures only import the stdlib and internal/obs.
var fixtureExports struct {
	once sync.Once
	m    map[string]string
	err  error
}

func fixtureImporter(t *testing.T, fset *token.FileSet) types.Importer {
	t.Helper()
	fixtureExports.once.Do(func() {
		cmd := exec.Command("go", "list", "-deps", "-export", "-f",
			"{{if .Export}}{{.ImportPath}} {{.Export}}{{end}}",
			"fmt", "math/rand", "sort", obsPkgPath)
		out, err := cmd.Output()
		if err != nil {
			fixtureExports.err = fmt.Errorf("go list -export: %v", err)
			return
		}
		fixtureExports.m = make(map[string]string)
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if path, file, ok := strings.Cut(line, " "); ok {
				fixtureExports.m[path] = file
			}
		}
	})
	if fixtureExports.err != nil {
		t.Fatal(fixtureExports.err)
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := fixtureExports.m[path]
		if !ok {
			return nil, fmt.Errorf("fixture imports %q, which the test importer does not provide", path)
		}
		return os.Open(f)
	})
}

// TestSuppressionRequiresMatchingName pins that an allow comment for one
// analyzer does not silence another, and that a matching one does.
func TestSuppressionRequiresMatchingName(t *testing.T) {
	runFixture(t, FloatCmp, "suppression")
}

// TestAllowCommentAudit pins the framework findings for malformed allow
// comments: bare, unknown-analyzer and reason-less forms are reported and
// cannot vouch for themselves.
func TestAllowCommentAudit(t *testing.T) {
	findings := Run([]*Package{loadFixture(t, "allowaudit")}, []*Analyzer{FloatCmp})

	var framework, floatcmp []Finding
	for _, f := range findings {
		switch f.Analyzer {
		case frameworkName:
			framework = append(framework, f)
		case FloatCmp.Name:
			floatcmp = append(floatcmp, f)
		}
	}
	wantSubstrs := []string{"bare //lint:allow", "unknown analyzer", "has no reason"}
	if len(framework) != len(wantSubstrs) {
		t.Fatalf("got %d framework findings, want %d: %v", len(framework), len(wantSubstrs), framework)
	}
	for i, want := range wantSubstrs {
		if !strings.Contains(framework[i].Message, want) {
			t.Errorf("framework finding %d = %q, want substring %q", i, framework[i].Message, want)
		}
	}
	// The bare and unknown-name allows suppress nothing, and the
	// reason-less one still names floatcmp, so only the float comparisons
	// under the two malformed allows surface.
	if len(floatcmp) != 2 {
		t.Errorf("got %d floatcmp findings, want 2 (under the bare and unknown-name allows): %v", len(floatcmp), floatcmp)
	}
}

// TestByName covers analyzer selection.
func TestByName(t *testing.T) {
	as, err := ByName("floatcmp, metricname")
	if err != nil || len(as) != 2 || as[0] != FloatCmp || as[1] != MetricName {
		t.Fatalf("ByName = %v, %v", as, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) should fail")
	}
	if _, err := ByName(""); err == nil {
		t.Fatal("ByName(empty) should fail")
	}
}

// TestLoadRealPackages smoke-tests the go-list-backed loader against this
// module's own packages (the same path cmd/lan-lint exercises).
func TestLoadRealPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping loader round-trip in -short mode")
	}
	pkgs, err := Load("../..", []string{"./internal/mat", "./graph"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	for _, p := range pkgs {
		if p.Types == nil || len(p.Files) == 0 {
			t.Errorf("package %s loaded without types or files", p.Path)
		}
	}
}
