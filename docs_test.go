package lan

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citingDocs are the documents whose test names a reader runs with -run or
// -bench.
var citingDocs = []string{
	"DESIGN.md", "README.md", "EXPERIMENTS.md", "benchmark/README.md",
	".claude/skills/verify/SKILL.md",
}

var (
	citedName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)
	testFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)
)

// TestDocsCiteExistingTests fails on every Test…, Benchmark… or Fuzz… name
// the documents cite that no test function of the module starts with — a
// name that, given to -run or -bench, would run nothing.
func TestDocsCiteExistingTests(t *testing.T) {
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			funcs = append(funcs, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range citingDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, name := range citedName.FindAllString(string(text), -1) {
			if seen[name] {
				continue
			}
			seen[name] = true
			found := false
			for _, f := range funcs {
				if strings.HasPrefix(f, name) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s cites %s, which no test function starts with", doc, name)
			}
		}
	}
}
