package crest

import (
	"reflect"
	"strconv"
	"testing"

	"crest/internal/pin"
)

// TestSurfaceDigests pins how many fields a caller can set on each
// public configuration struct, an embedded struct's fields counted in
// its place, to testdata/surface.digest: a knob added to or removed
// from the API shows up as a changed pin.
func TestSurfaceDigests(t *testing.T) {
	got := map[string]string{}
	for _, v := range []any{Config{}, BenchmarkConfig{}} {
		typ := reflect.TypeOf(v)
		got[typ.Name()] = strconv.Itoa(settableFields(typ))
	}
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
