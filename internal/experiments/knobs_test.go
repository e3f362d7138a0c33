package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// paramsAndConfig says why each name may be declared directly on both
// Params and an experiment's Config. Every other setting the two share is
// declared once, in RunConfig, and embedded in both.
var paramsAndConfig = map[string]string{
	"Shards":  "Params carries -shards to the sharded rows, which read it; the rest never see it",
	"SLO":     "Params carries the loaded -slo rules to the rows that read them; the rest never see them",
	"Predict": "Params carries -predict to powermgmt, the one row that reads it",
}

// structFields lists, for every struct type declared in this package's
// non-test Go files, the names of the fields declared on it directly (an
// embedded field declares none).
func structFields(t *testing.T) map[string]map[string]bool {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	structs := map[string]map[string]bool{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := spec.Type.(*ast.StructType)
			if !ok {
				return false
			}
			fs := map[string]bool{}
			for _, field := range st.Fields.List {
				for _, id := range field.Names {
					fs[id.Name] = true
				}
			}
			structs[spec.Name.Name] = fs
			return false
		})
	}
	return structs
}

// TestNoExperimentSettingDeclaredTwice is the regrowth guard for one knob,
// one field in this package: it fails when a name is declared directly on
// both Params and an experiment's Config (a row would copy it across by
// hand) and paramsAndConfig gives no reason, and when a paramsAndConfig
// entry no longer applies. It reads the source, so a new Config is
// checked the day it is written.
func TestNoExperimentSettingDeclaredTwice(t *testing.T) {
	structs := structFields(t)
	params := structs["Params"]
	if len(params) == 0 {
		t.Fatal("no Params struct with direct fields found")
	}
	used := map[string]bool{}
	configs := 0
	for typ, fields := range structs {
		if !strings.HasSuffix(typ, "Config") || typ == "RunConfig" {
			continue
		}
		configs++
		for name := range fields {
			if !params[name] {
				continue
			}
			if _, ok := paramsAndConfig[name]; !ok {
				t.Errorf("Params.%s is declared again as %s.%s: declare it once and embed it in both", name, typ, name)
			}
			used[name] = true
		}
	}
	if configs == 0 {
		t.Fatal("no experiment Config structs found")
	}
	for name := range paramsAndConfig {
		if !used[name] {
			t.Errorf("paramsAndConfig lists %s, which no Config declares alongside Params: drop the entry", name)
		}
	}
}
