package codequality

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckMarkdownLinks(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"README.md": `# Top

Good: [docs](docs/GUIDE.md), [section](docs/GUIDE.md#setup),
[anchor](#local), [web](https://example.com/x), [dir](docs).

Bad: [gone](docs/MISSING.md).

` + "```sh\nawk '{ print $1 }' [not](a/link.md)\n```" + `
`,
		"docs/GUIDE.md": `# Guide

Relative to docs/: [up](../README.md), [broken](./nope.md).
`,
	})
	issues, err := CheckMarkdownLinks(dir, []string{"README.md", "docs/GUIDE.md"})
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 2 {
		t.Fatalf("issues = %d (%v), want 2", len(issues), issues)
	}
	if issues[0].File != "README.md" || issues[0].Target != "docs/MISSING.md" {
		t.Errorf("issue 0 = %v", issues[0])
	}
	if issues[1].File != "docs/GUIDE.md" || issues[1].Target != "./nope.md" {
		t.Errorf("issue 1 = %v", issues[1])
	}
}

func TestRepoMarkdownFiles(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"README.md":            "# r\n",
		"docs/A.md":            "# a\n",
		"docs/B.md":            "# b\n",
		"examples/x/README.md": "# x\n",
		"examples/x/main.go":   "package main\n",
	})
	files, err := RepoMarkdownFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"README.md", "docs/A.md", "docs/B.md", "examples/x/README.md"}
	if len(files) != len(want) {
		t.Fatalf("files = %v, want %v", files, want)
	}
	for i := range want {
		if files[i] != want[i] {
			t.Fatalf("files = %v, want %v", files, want)
		}
	}
}

// TestRepoDocsLinks is the docs lint CI runs: every relative link in
// the repository's own markdown must resolve.
func TestRepoDocsLinks(t *testing.T) {
	root := moduleRoot(t)
	files, err := RepoMarkdownFiles(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("found only %d markdown files under %s; lint coverage lost", len(files), root)
	}
	issues, err := CheckMarkdownLinks(root, files)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range issues {
		t.Errorf("broken doc link: %s", i)
	}
}

// TestBenchmarkModuleBuilds vets the repository benchmark, a nested
// module that `go test ./...` at the root never compiles: a change that
// breaks an identifier the benchmark uses fails here instead of in the
// benchmark's own build.
func TestBenchmarkModuleBuilds(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH, so the benchmark module cannot be vetted")
	}
	cmd := exec.Command(goBin, "vet", "-C", filepath.Join(moduleRoot(t), "benchmark"), "./...")
	// As benchmark/run.sh builds it: no module download, no toolchain switch.
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOTOOLCHAIN=local", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -C benchmark ./...: %v\n%s", err, out)
	}
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

func TestLinkIssueString(t *testing.T) {
	s := LinkIssue{File: "docs/A.md", Line: 7, Target: "x.md", Message: "target does not exist"}.String()
	if !strings.Contains(s, "docs/A.md:7") || !strings.Contains(s, "x.md") {
		t.Errorf("String() = %q", s)
	}
}
