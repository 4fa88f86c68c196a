package engine

import (
	"strings"
	"testing"

	"crest/internal/layout"
)

// rec is the smallest Rec: what the strict driver's Work and CREST's
// access both are to the shared helpers.
type rec struct{ RecBase }

func recs(keys ...RecKey) []*rec {
	out := make([]*rec, len(keys))
	for i, k := range keys {
		out[i] = &rec{RecBase{RecKey: k}}
	}
	return out
}

func TestSortAndFindRecs(t *testing.T) {
	rs := recs(RecKey{2, 1}, RecKey{1, 9}, RecKey{2, 0}, RecKey{1, 3})
	SortRecs(rs)
	want := []RecKey{{1, 3}, {1, 9}, {2, 0}, {2, 1}}
	for i, r := range rs {
		if r.RecKey != want[i] {
			t.Fatalf("position %d holds %v, want %v", i, r.RecKey, want[i])
		}
	}
	if got := FindRec(rs, RecKey{2, 0}); got != rs[2] {
		t.Fatalf("FindRec returned %v", got)
	}
	if got := FindRec(rs, RecKey{3, 0}); got != nil {
		t.Fatalf("FindRec of an absent key returned %v", got)
	}
}

func TestSlabRecyclesEntriesAsLeft(t *testing.T) {
	var s Slab[[]byte]
	a := s.Next()
	*a = append(*a, 1, 2, 3)
	b := s.Next()
	if a == b {
		t.Fatal("two live entries alias")
	}
	s.Reset()
	if again := s.Next(); len(*again) != 3 {
		t.Fatalf("recycled entry was cleared: %v", *again)
	}
}

func TestArenaSlicesSurviveGrowth(t *testing.T) {
	var a Arena
	first := a.Bytes(8)
	copy(first, "abcdefgh")
	if extra := append(first, 'x'); &extra[0] == &first[0] {
		t.Fatal("append to an arena slice grew into its neighbour")
	}
	big := a.Bytes(64 << 10) // larger than a chunk: forces a fresh one
	big[0] = 'z'
	if string(first) != "abcdefgh" {
		t.Fatalf("earlier slice changed to %q when the arena grew", first)
	}
	a.Reset()
	if got := a.Bytes(4); &got[0] != &big[0] {
		t.Fatal("Reset did not recycle the current chunk")
	}
}

func TestFreeListIsLIFO(t *testing.T) {
	var f FreeList[int]
	if f.Get() != nil {
		t.Fatal("empty free list handed something out")
	}
	a, b := new(int), new(int)
	f.Put(a)
	f.Put(b)
	if f.Get() != b || f.Get() != a || f.Get() != nil {
		t.Fatal("free list is not last-in first-out")
	}
}

func TestRunHookHoldsTheHookToItsDeclaration(t *testing.T) {
	op := &Op{WriteCells: []int{0, 2}}
	sizes := []int{8, 8, 4}
	mustPanic := func(want string, out [][]byte) {
		t.Helper()
		defer func() {
			if r, _ := recover().(string); !strings.Contains(r, want) {
				t.Fatalf("panic %q does not mention %q", r, want)
			}
		}()
		op.Hook = func(any, [][]byte) [][]byte { return out }
		op.RunHook("FORD", nil, nil, sizes)
	}
	mustPanic("FORD: hook returned 1 values for 2 write cells", [][]byte{make([]byte, 8)})
	mustPanic("FORD: hook wrote 8 bytes to cell 2 of size 4", [][]byte{make([]byte, 8), make([]byte, 8)})
	op.Hook = func(any, [][]byte) [][]byte { return [][]byte{make([]byte, 8), make([]byte, 4)} }
	if got := op.RunHook("FORD", nil, nil, sizes); len(got) != 2 {
		t.Fatalf("well-formed hook output rejected: %v", got)
	}
	if op.CellMask() != layout.LockMask([]int{0, 2}) {
		t.Fatalf("CellMask = %b", op.CellMask())
	}
}
