package crest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"crest/internal/pin"
)

// TestSurfaceDigests pins the size of the public API to
// testdata/surface.digest: how many fields a caller can set on each
// public configuration struct, an embedded struct's fields counted in
// its place, and (exports) how many package-level identifiers the
// package exports. A knob or an export added to or removed from the
// API shows up as a changed pin.
func TestSurfaceDigests(t *testing.T) {
	got := map[string]string{}
	for _, v := range []any{Config{}, BenchmarkConfig{}} {
		typ := reflect.TypeOf(v)
		got[typ.Name()] = strconv.Itoa(settableFields(typ))
	}
	got["exports"] = strconv.Itoa(exportedIdentifiers(t))
	pin.Rows(t, "testdata/surface.digest", got)
}

// settableFields counts the exported fields of struct type typ,
// descending into embedded structs.
func settableFields(typ reflect.Type) int {
	n := 0
	for _, f := range reflect.VisibleFields(typ) {
		if f.IsExported() && !(f.Anonymous && f.Type.Kind() == reflect.Struct) {
			n++
		}
	}
	return n
}

// exportedIdentifiers counts the exported package-level identifiers
// of the package's non-test files: functions without a receiver,
// types, constants and variables.
func exportedIdentifiers(t *testing.T) int {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range pkgs["crest"].Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					n++
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							n++
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() {
								n++
							}
						}
					}
				}
			}
		}
	}
	return n
}
