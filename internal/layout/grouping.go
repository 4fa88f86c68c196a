package layout

import (
	"fmt"
	"sort"
)

// Grouping consolidates a schema's cells into fewer, larger cells —
// the improvement §4.4 of the paper sketches for wide tables:
// "consolidate cells based on transactions' access patterns (e.g.,
// grouping read-intensive cells) to mitigate conflicts". A Grouping
// is the consolidated schema and, for each of its cells, the original
// cells it holds; crestinspect reports it, and no engine runs grouped
// records.
type Grouping struct {
	grouped Schema
	members [][]int // grouped cell → original cells (in layout order)
}

// NewGrouping builds a grouping from explicit groups of original cell
// indices. Every cell must appear in exactly one group; groups of one
// keep the cell as is. The grouped schema preserves the original
// table id and name.
func NewGrouping(s Schema, groups [][]int) (*Grouping, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	claimed := make([]int, s.NumCells())
	for gi, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("layout: empty group %d", gi)
		}
		for _, c := range g {
			if c < 0 || c >= s.NumCells() {
				return nil, fmt.Errorf("layout: group %d references cell %d of %d", gi, c, s.NumCells())
			}
			claimed[c]++
		}
	}
	for c, n := range claimed {
		if n != 1 {
			return nil, fmt.Errorf("layout: cell %d appears in %d groups, want exactly 1", c, n)
		}
	}
	g := &Grouping{grouped: Schema{ID: s.ID, Name: s.Name}}
	for _, group := range groups {
		members := append([]int(nil), group...)
		sort.Ints(members)
		size := 0
		for _, c := range members {
			size += s.CellSizes[c]
		}
		g.members = append(g.members, members)
		g.grouped.CellSizes = append(g.grouped.CellSizes, size)
	}
	if err := g.grouped.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// GroupByAccess derives groups from observed access patterns: cells
// that are only ever read share one group, cells that are written
// stay individual (they are the contention points cell-level locking
// protects). writtenCells lists every cell any transaction type
// writes.
func GroupByAccess(s Schema, writtenCells []int) (*Grouping, error) {
	written := map[int]bool{}
	for _, c := range writtenCells {
		if c < 0 || c >= s.NumCells() {
			return nil, fmt.Errorf("layout: written cell %d of %d", c, s.NumCells())
		}
		written[c] = true
	}
	var groups [][]int
	var readOnly []int
	for c := 0; c < s.NumCells(); c++ {
		if written[c] {
			groups = append(groups, []int{c})
		} else {
			readOnly = append(readOnly, c)
		}
	}
	if len(readOnly) > 0 {
		groups = append(groups, readOnly)
	}
	return NewGrouping(s, groups)
}

// Grouped returns the consolidated schema.
func (g *Grouping) Grouped() Schema { return g.grouped }

// Members returns the original cells inside grouped cell gi, in the
// order their bytes are laid out.
func (g *Grouping) Members(gi int) []int { return g.members[gi] }
