// The public surface of package tracered. testdata/tracered_api.txt
// lists every exported identifier of tracered's non-test files with its
// kind, and functions and methods with their signatures, so a new
// wrapper, a removed name or a changed signature shows up as a reviewed
// diff. Regenerate deliberately with
//
//	go test . -run TestTraceredSurface -update
package repro

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const surfaceGoldenPath = "testdata/tracered_api.txt"

// traceredSurface returns one line per exported identifier declared in
// tracered's non-test files, sorted.
func traceredSurface(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	files, err := filepath.Glob("tracered/*.go")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				var sig bytes.Buffer
				if err := printer.Fprint(&sig, fset, d.Type); err != nil {
					t.Fatal(err)
				}
				head := "func " + d.Name.Name
				if d.Recv != nil {
					var recv bytes.Buffer
					if err := printer.Fprint(&recv, fset, d.Recv.List[0].Type); err != nil {
						t.Fatal(err)
					}
					head = "method (" + recv.String() + ") " + d.Name.Name
				}
				lines = append(lines, head+strings.TrimPrefix(sig.String(), "func"))
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							lines = append(lines, "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								lines = append(lines, d.Tok.String()+" "+n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return lines
}

// TestTraceredSurface compares tracered's exported identifiers with the
// committed list.
func TestTraceredSurface(t *testing.T) {
	got := strings.Join(traceredSurface(t), "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(surfaceGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(surfaceGoldenPath)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update): %v", surfaceGoldenPath, err)
	}
	if got != string(want) {
		t.Errorf("tracered's exported surface differs from %s; review the change and regenerate with -update.\ngot:\n%s", surfaceGoldenPath, got)
	}
}
