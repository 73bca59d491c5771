package codequality

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree creates a temp module tree for analysis.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestComplexityAndNesting(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"a/a.go": `package a

// Simple has complexity 1.
func Simple() int { return 1 }

// Branchy has complexity 1 + if + for + 2 cases + && = 6.
func Branchy(x int) int {
	if x > 0 && x < 10 {
		for i := 0; i < x; i++ {
			x++
		}
	}
	switch x {
	case 1:
		return 1
	case 2:
		return 2
	}
	return 0
}
`,
	})
	rep, err := AnalyzeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Packages) != 1 {
		t.Fatalf("packages = %d", len(rep.Packages))
	}
	p := rep.Packages[0]
	if len(p.Functions) != 2 {
		t.Fatalf("functions = %d", len(p.Functions))
	}
	byName := map[string]FunctionReport{}
	for _, f := range p.Functions {
		byName[f.Name] = f
	}
	if c := byName["Simple"].Complexity; c != 1 {
		t.Errorf("Simple complexity = %d, want 1", c)
	}
	if c := byName["Branchy"].Complexity; c != 6 {
		t.Errorf("Branchy complexity = %d, want 6", c)
	}
	if n := byName["Branchy"].MaxNesting; n != 2 {
		t.Errorf("Branchy nesting = %d, want 2 (if>for)", n)
	}
	if p.MaxComplexity != 6 {
		t.Errorf("MaxComplexity = %d", p.MaxComplexity)
	}
}

func TestBugPatterns(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"b/b.go": `package b

func Buggy(x int) int {
	if x > 0 {
	}
	if true {
		x = x
	}
	if x == x {
		return 1
	}
	return x
}
`,
	})
	rep, err := AnalyzeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rules := map[string]int{}
	for _, is := range rep.AllIssues() {
		rules[is.Rule]++
	}
	for _, want := range []string{"empty-branch", "constant-condition", "self-assignment", "identical-operands"} {
		if rules[want] == 0 {
			t.Errorf("rule %s not triggered: %v", want, rules)
		}
	}
}

func TestMethodNamesAndTestFilesSkipped(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"c/c.go": `package c

type T struct{}

// M is a method.
func (t *T) M() {}
`,
		"c/c_test.go": `package c

func TestIgnored(t *testing.T) {}
`,
	})
	rep, err := AnalyzeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Packages[0]
	if len(p.Functions) != 1 {
		t.Fatalf("functions = %d (test files must be skipped)", len(p.Functions))
	}
	if p.Functions[0].Name != "(*T).M" {
		t.Errorf("method name = %q", p.Functions[0].Name)
	}
}

func TestCommentDensityCounted(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"d/d.go": "package d\n\n// one\n// two\n// three\nfunc F() {}\n",
	})
	rep, err := AnalyzeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packages[0].CommentLines < 3 {
		t.Errorf("comment lines = %d, want >= 3", rep.Packages[0].CommentLines)
	}
}

func TestAnalyzeOwnRepository(t *testing.T) {
	// The §3.5 loop: the reference implementations ship with a quality
	// report. The repo root is two levels up from this package.
	rep, err := AnalyzeDir("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Packages) < 10 {
		t.Fatalf("analyzed only %d packages of the repository", len(rep.Packages))
	}
	out := rep.Render()
	if !strings.Contains(out, "TOTAL") {
		t.Error("render missing TOTAL row")
	}
	worst := rep.WorstFunctions(5)
	if len(worst) != 5 {
		t.Fatalf("WorstFunctions = %d", len(worst))
	}
	for i := 1; i < len(worst); i++ {
		if worst[i-1].Complexity < worst[i].Complexity {
			t.Fatal("WorstFunctions not sorted")
		}
	}
}

func TestParseErrorSurfaced(t *testing.T) {
	dir := writeTree(t, map[string]string{"e/broken.go": "package e\nfunc {"})
	if _, err := AnalyzeDir(dir); err == nil {
		t.Error("syntax error should surface")
	}
}

// The benchmark core stays split into files of at most 350 lines
// (collation, plan, execute, restore, the executor seam, the failure
// taxonomy), so no one file grows back into the whole harness.
func TestCoreFilesStaySmall(t *testing.T) {
	const maxLines = 350
	checked := 0
	err := filepath.WalkDir("../core", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		checked++
		if n := bytes.Count(data, []byte("\n")); n > maxLines {
			t.Errorf("%s has %d lines, want at most %d: split it along the core's seams", path, n, maxLines)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("found no Go files under internal/core")
	}
}
