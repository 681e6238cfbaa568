package mlexray_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// facadeOrphans returns, sorted, the exported names the facade file declares
// that no user file selects (mlexray.X) and that no kept name's declaration
// mentions — a kept function's signature, a kept type's or constant's spec.
func facadeOrphans(facade *ast.File, users []*ast.File) []string {
	// What each exported name's declaration may mention: a function's
	// signature (its body only forwards), a type or value spec whole.
	decls := map[string]ast.Node{}
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				decls[d.Name.Name] = d.Type
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.Name.IsExported() {
						decls[spec.Name.Name] = spec
					}
				case *ast.ValueSpec:
					for _, name := range spec.Names {
						if name.IsExported() {
							decls[name.Name] = spec
						}
					}
				}
			}
		}
	}

	var work []string
	kept := map[string]bool{}
	keep := func(name string) {
		if _, declared := decls[name]; declared && !kept[name] {
			kept[name] = true
			work = append(work, name)
		}
	}
	for _, f := range users {
		local := ""
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "mlexray" {
				local = "mlexray"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					keep(sel.Sel.Name)
				}
			}
			return true
		})
	}
	var mentions func(n ast.Node) bool
	mentions = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// core.Log names internal/core's Log, not the facade's.
			ast.Inspect(n.X, mentions)
			return false
		case *ast.Ident:
			keep(n.Name)
		}
		return true
	}
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		ast.Inspect(decls[name], mentions)
	}

	var orphans []string
	for name := range decls {
		if !kept[name] {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	return orphans
}

// TestFacadeExportsHaveUsers keeps the facade the size of its users: every
// exported name mlexray.go declares must be selected by a non-test program
// under examples/ or cmd/, or be mentioned by the declaration of one that is
// (the types their signatures need). A re-export nobody imports is a second
// name for something in internal/ — delete it rather than satisfy this test
// with a contrived caller.
func TestFacadeExportsHaveUsers(t *testing.T) {
	fset := token.NewFileSet()
	src, err := os.ReadFile("mlexray.go")
	if err != nil {
		t.Fatal(err)
	}
	var users []*ast.File
	for _, root := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			users = append(users, f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	facade, err := parser.ParseFile(fset, "mlexray.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if orphans := facadeOrphans(facade, users); len(orphans) > 0 {
		t.Errorf("mlexray.go exports names no program under examples/ or cmd/ uses: %v", orphans)
	}

	// The check must be able to fail: one unused alias added back is named,
	// and an alias only an unused function's signature mentions goes with it.
	grown := string(src) + `
type Sink = core.Sink
type LogDecoder = core.LogDecoder
func OpenLog(r io.Reader) (LogDecoder, LogFormat, error) { return core.OpenLog(r) }
`
	facade, err = parser.ParseFile(fset, "mlexray.go", grown, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := facadeOrphans(facade, users), []string{"LogDecoder", "OpenLog", "Sink"}; !reflect.DeepEqual(got, want) {
		t.Errorf("with three unused exports added back the check names %v, want %v", got, want)
	}
}
