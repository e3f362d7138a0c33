package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLintPackageFlagsUndocumentedExports(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "pkg.go"), `// Package demo is documented.
package demo

func Undocumented() {}

// Documented has a doc comment.
func Documented() {}

type Bad struct {
	Field int
	// Ok is documented.
	Ok int
	hidden int
}

// Iface is documented.
type Iface interface {
	NoDoc()
	WithDoc() // WithDoc is documented inline.
}

const Loose = 1

// Grouped constants share the block comment.
const (
	A = 1
	B = 2
)

func unexported() {}
`)
	// Test files are excluded even when broken.
	writeFile(t, filepath.Join(dir, "pkg_test.go"), "package demo\n\nfunc TestExportedNoDoc() {}\n")
	problems, err := lintPackage(dir)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(problems, "\n")
	for _, want := range []string{
		"func Undocumented",
		"type Bad",
		"field Bad.Field",
		"interface method Iface.NoDoc",
		"const Loose",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("lint missed %q:\n%s", want, joined)
		}
	}
	for _, clean := range []string{"Documented", "Bad.Ok", "WithDoc", "A", "B", "hidden", "unexported", "TestExportedNoDoc"} {
		for _, p := range problems {
			if strings.HasSuffix(p, clean+" is exported but undocumented") {
				t.Errorf("false positive: %s", p)
			}
		}
	}
	if len(problems) != 5 {
		t.Errorf("found %d problems, want 5:\n%s", len(problems), joined)
	}
}

func TestLintMarkdownFlagsBrokenLinks(t *testing.T) {
	root := t.TempDir()
	writeFile(t, filepath.Join(root, "exists.md"), "hello")
	writeFile(t, filepath.Join(root, "DOC.md"), strings.Join([]string{
		"[good](exists.md)",
		"[anchor](exists.md#section) and [page](#local)",
		"[external](https://example.com/missing.md)",
		"[broken](missing.md)",
		"![img](missing.png)",
	}, "\n"))
	problems, err := lintMarkdown(root, "DOC.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 2 {
		t.Fatalf("found %d problems, want 2 (missing.md, missing.png):\n%s",
			len(problems), strings.Join(problems, "\n"))
	}
	for _, p := range problems {
		if !strings.Contains(p, "missing.") {
			t.Errorf("unexpected finding: %s", p)
		}
	}
}

// TestLintMarkdownChecksSimCommands feeds lintMarkdown microfaas-sim
// command lines: commands the suite accepts, prose that only looks like a
// command, and one of each way a documented command can go stale.
func TestLintMarkdownChecksSimCommands(t *testing.T) {
	root := t.TempDir()
	good := []string{
		"go run ./cmd/microfaas-sim -n 1000 headline   # paper scale",
		"go run ./cmd/microfaas-sim report > report.md",
		"`microfaas-sim -predict -parallel 8 powermgmt` and `microfaas-sim -format csv fig4`",
		"`microfaas-sim -slo examples/slo/rules.json -shards=16 shardfailover`",
		"a flag mention, `microfaas-sim -slo …`, and the bare `microfaas-sim` name",
		"  microfaas-sim         regenerate the paper's figures (a directory listing)",
		"cmd/microfaas-sim  cmd/microfaas-live",
	}
	bad := map[string]string{
		"`microfaas-sim fig9`":                            "unknown experiment",
		"go run ./cmd/microfaas-sim -n 5 fig4":            "-n does not apply to fig4",
		"`microfaas-sim -format csv headline`":            "-format csv does not apply to headline",
		"`microfaas-sim -shards 8 -seed 2 fig3`":          "-shards does not apply to fig3",
		"go run ./cmd/microfaas-sim -workers 4 rackscale": "no experiment takes -workers",
		"the `microfaas-sim -sloo …` flag":                "no experiment takes -sloo",
	}
	writeFile(t, filepath.Join(root, "GOOD.md"), strings.Join(good, "\n"))
	problems, err := lintMarkdown(root, "GOOD.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Errorf("valid line flagged: %s", p)
	}
	for line, want := range bad {
		writeFile(t, filepath.Join(root, "BAD.md"), line)
		problems, err := lintMarkdown(root, "BAD.md")
		if err != nil {
			t.Fatal(err)
		}
		if len(problems) != 1 || !strings.Contains(problems[0], want) {
			t.Errorf("%s: findings %q, want one containing %q", line, problems, want)
		}
	}
}

// TestRepositoryIsClean runs the real gate over the repository itself —
// the same check `make docslint` enforces.
func TestRepositoryIsClean(t *testing.T) {
	root := "../.."
	for _, pkg := range apiPackages {
		problems, err := lintPackage(filepath.Join(root, pkg))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range problems {
			t.Error(p)
		}
	}
	for _, doc := range docFiles {
		problems, err := lintMarkdown(root, doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range problems {
			t.Error(p)
		}
	}
}
