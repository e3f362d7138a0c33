// Command docslint is the repository's documentation gate, run by
// `make check` and CI. It enforces three invariants with nothing but the
// standard library:
//
//  1. Every exported identifier in the core API packages — including
//     methods, struct fields, and interface methods — carries a doc
//     comment. A grouped const/var block may be covered by one comment on
//     the block.
//  2. Every relative link in the top-level markdown documentation points
//     at a file that exists.
//  3. Every `microfaas-sim` command in that documentation names a row of
//     experiments.Suite and passes only flags that row reads.
//
// Usage:
//
//	docslint [-root dir]
//
// Exits non-zero listing every violation.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"

	"microfaas/internal/experiments"
)

// apiPackages are the packages whose exported surface must be fully
// documented (DESIGN.md §"public surface").
var apiPackages = []string{
	"internal/core",
	"internal/node",
	"internal/gpio",
	"internal/power",
	"internal/powermgr",
	"internal/forecast",
	"internal/trace",
	"internal/telemetry",
}

// docFiles are the markdown documents whose relative links must resolve
// and whose microfaas-sim commands must match the suite.
var docFiles = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	"ARCHITECTURE.md",
}

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()
	var problems []string
	for _, pkg := range apiPackages {
		ps, err := lintPackage(filepath.Join(*root, pkg))
		if err != nil {
			fmt.Fprintln(os.Stderr, "docslint:", err)
			os.Exit(1)
		}
		problems = append(problems, ps...)
	}
	for _, doc := range docFiles {
		ps, err := lintMarkdown(*root, doc)
		if err != nil {
			// A required document that is missing or unreadable is itself
			// a finding, not a tool failure.
			problems = append(problems, fmt.Sprintf("docslint: %v", err))
			continue
		}
		problems = append(problems, ps...)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Fprintf(os.Stderr, "docslint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// lintPackage parses one package directory (tests excluded) and returns a
// finding for every exported identifier without a doc comment.
func lintPackage(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var problems []string
	flag := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: %s is exported but undocumented", p.Filename, p.Line, what))
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil && receiverExported(d) {
						flag(d.Pos(), funcLabel(d))
					}
				case *ast.GenDecl:
					lintGenDecl(d, flag)
				}
			}
		}
	}
	return problems, nil
}

// receiverExported reports whether a method's receiver type is itself
// exported; methods on unexported types are internal however they're
// spelled.
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	return !ok || id.IsExported()
}

func funcLabel(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return "func " + d.Name.Name
	}
	return "method " + d.Name.Name
}

// lintGenDecl checks a type/const/var declaration. A doc comment on the
// grouped block covers every spec inside it; otherwise each exported spec
// needs its own doc (or, for consts/vars/fields, a trailing comment).
func lintGenDecl(d *ast.GenDecl, flag func(token.Pos, string)) {
	blockDocumented := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && !blockDocumented && s.Doc == nil && s.Comment == nil {
				flag(s.Pos(), "type "+s.Name.Name)
			}
			if s.Name.IsExported() {
				lintTypeBody(s, flag)
			}
		case *ast.ValueSpec:
			if blockDocumented || s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					flag(name.Pos(), kindWord(d.Tok)+" "+name.Name)
				}
			}
		}
	}
}

func kindWord(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}

// lintTypeBody checks exported struct fields and interface methods of an
// exported type.
func lintTypeBody(s *ast.TypeSpec, flag func(token.Pos, string)) {
	switch t := s.Type.(type) {
	case *ast.StructType:
		for _, f := range t.Fields.List {
			if f.Doc != nil || f.Comment != nil {
				continue
			}
			for _, name := range f.Names {
				if name.IsExported() {
					flag(name.Pos(), "field "+s.Name.Name+"."+name.Name)
				}
			}
		}
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			if m.Doc != nil || m.Comment != nil {
				continue
			}
			for _, name := range m.Names {
				if name.IsExported() {
					flag(name.Pos(), "interface method "+s.Name.Name+"."+name.Name)
				}
			}
		}
	}
}

// mdLink matches inline markdown links and images; group 1 is the target.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// simCommand matches a microfaas-sim command — after `go run ./cmd/` or at
// the start of an inline code span, so prose and directory listings are
// not commands — and captures its arguments up to the end of the span, a
// shell comment, a redirect or the end of the line.
var simCommand = regexp.MustCompile("(?:go run \\./cmd/|`)microfaas-sim((?: +[^ `#>|]+)*)")

// lintSimCommand checks one documented command line against
// experiments.Suite: the experiment must be a row, and every flag one the
// row reads (Experiment.CheckFlag, the rule microfaas-sim itself applies).
// A mention that stops before the experiment, like `microfaas-sim -slo …`,
// must still use flags some row reads. The word after a flag is taken as
// its value unless it names a row.
func lintSimCommand(args []string) error {
	var flags [][2]string // name, value
	var exp *experiments.Experiment
	for len(args) > 0 && exp == nil {
		a := args[0]
		args = args[1:]
		if !strings.HasPrefix(a, "-") {
			if exp = experiments.Lookup(a); exp == nil {
				return fmt.Errorf("unknown experiment %q", a)
			}
			continue
		}
		name, value, hasValue := strings.Cut(strings.TrimLeft(a, "-"), "=")
		if !hasValue && len(args) > 0 && !strings.HasPrefix(args[0], "-") && experiments.Lookup(args[0]) == nil {
			value, args = args[0], args[1:]
		}
		flags = append(flags, [2]string{name, value})
	}
	rows := experiments.Suite // a bare mention: some row must take each flag
	if exp != nil {
		rows = []experiments.Experiment{*exp}
	}
	for _, f := range flags {
		if f[0] != "h" && !slices.ContainsFunc(rows, func(e experiments.Experiment) bool { return e.CheckFlag(f[0], f[1]) == nil }) {
			return rows[0].CheckFlag(f[0], f[1])
		}
	}
	return nil
}

// lintMarkdown returns a finding for every relative link in the document
// whose target file does not exist — external links (scheme-prefixed) and
// pure in-page anchors are skipped — and for every microfaas-sim command
// lintSimCommand rejects.
func lintMarkdown(root, name string) ([]string, error) {
	path := filepath.Join(root, name)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var problems []string
	for i, line := range strings.Split(string(raw), "\n") {
		for _, m := range simCommand.FindAllStringSubmatch(line, -1) {
			if err := lintSimCommand(strings.Fields(m[1])); err != nil {
				problems = append(problems, fmt.Sprintf("%s:%d: microfaas-sim%s: %v", name, i+1, m[1], err))
			}
		}
		for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0] // drop in-page anchor
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s:%d: broken link %q", name, i+1, m[1]))
			}
		}
	}
	return problems, nil
}
