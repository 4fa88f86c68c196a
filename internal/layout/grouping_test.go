package layout

import (
	"slices"
	"testing"
)

func groupingSchema() Schema {
	return Schema{ID: 5, Name: "wide", CellSizes: []int{8, 16, 8, 24, 8}}
}

func TestNewGroupingValid(t *testing.T) {
	g, err := NewGrouping(groupingSchema(), [][]int{{0}, {1, 3}, {2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Grouped().NumCells(); got != 3 {
		t.Fatalf("grouped cells = %d", got)
	}
	if got := g.Grouped().CellSizes[1]; got != 40 { // 16+24
		t.Fatalf("group 1 size = %d", got)
	}
	if g.Grouped().DataBytes() != groupingSchema().DataBytes() {
		t.Fatal("grouping changed total data bytes")
	}
	for gi, want := range [][]int{{0}, {1, 3}, {2, 4}} {
		if got := g.Members(gi); !slices.Equal(got, want) {
			t.Fatalf("group %d holds %v, want %v", gi, got, want)
		}
	}
}

func TestNewGroupingRejectsBadGroups(t *testing.T) {
	s := groupingSchema()
	cases := [][][]int{
		{{0}, {1}},                     // missing cells
		{{0, 0}, {1}, {2}, {3}, {4}},   // duplicate inside a group
		{{0}, {1}, {2}, {3}, {4}, {0}}, // cell in two groups
		{{0}, {}, {1}, {2}, {3}, {4}},  // empty group
		{{0}, {1}, {2}, {3}, {9}},      // out of range
	}
	for i, groups := range cases {
		if _, err := NewGrouping(s, groups); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestGroupByAccessSeparatesWrittenCells(t *testing.T) {
	g, err := GroupByAccess(groupingSchema(), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	// Written cell 2 alone; 0,1,3,4 consolidated.
	if g.Grouped().NumCells() != 2 {
		t.Fatalf("grouped into %d cells", g.Grouped().NumCells())
	}
	if got := g.Members(0); !slices.Equal(got, []int{2}) {
		t.Fatalf("written cell's group holds %v, want [2]", got)
	}
	if got := g.Members(1); !slices.Equal(got, []int{0, 1, 3, 4}) {
		t.Fatalf("read-only cells grouped as %v, want [0 1 3 4]", got)
	}
}
