package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"crest/internal/layout"
	"crest/internal/sim"
)

func cell(k uint64, c int) CellID { return CellID{Table: 1, Key: layout.Key(k), Cell: c} }

func TestHistorySerialReplayAccepts(t *testing.T) {
	h := NewHistory()
	h.SetInitial(cell(0, 0), []byte{0})
	h.Commit(HTxn{TS: 1,
		Reads:  []HRead{{Cell: cell(0, 0), Hash: HashValue([]byte{0})}},
		Writes: []HWrite{{Cell: cell(0, 0), Hash: HashValue([]byte{1})}},
	})
	h.Commit(HTxn{TS: 2,
		Reads:  []HRead{{Cell: cell(0, 0), Hash: HashValue([]byte{1})}},
		Writes: []HWrite{{Cell: cell(0, 0), Hash: HashValue([]byte{2})}},
	})
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryDetectsLostUpdate(t *testing.T) {
	h := NewHistory()
	h.SetInitial(cell(0, 0), []byte{0})
	// Both transactions read the initial value: the second one's read
	// is inconsistent with serial order.
	h.Commit(HTxn{TS: 1,
		Reads:  []HRead{{Cell: cell(0, 0), Hash: HashValue([]byte{0})}},
		Writes: []HWrite{{Cell: cell(0, 0), Hash: HashValue([]byte{1})}},
	})
	h.Commit(HTxn{TS: 2,
		Reads:  []HRead{{Cell: cell(0, 0), Hash: HashValue([]byte{0})}},
		Writes: []HWrite{{Cell: cell(0, 0), Hash: HashValue([]byte{1})}},
	})
	if err := h.Check(); err == nil {
		t.Fatal("lost update not detected")
	}
}

func TestHistorySnapshotReadsSerializeAtSnapshot(t *testing.T) {
	h := NewHistory()
	h.SetInitial(cell(0, 0), []byte{0})
	h.Commit(HTxn{TS: 1, Writes: []HWrite{{Cell: cell(0, 0), Hash: HashValue([]byte{1})}}})
	h.Commit(HTxn{TS: 2, Writes: []HWrite{{Cell: cell(0, 0), Hash: HashValue([]byte{2})}}})
	// A snapshot reader at snapshot 1 sees value 1 even though its
	// commit timestamp is 9.
	h.Commit(HTxn{TS: 9, Snapshot: true, SnapshotTS: 1,
		Reads: []HRead{{Cell: cell(0, 0), Hash: HashValue([]byte{1})}},
	})
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
	// A snapshot reader at snapshot 0 must see the initial value.
	h.Commit(HTxn{TS: 10, Snapshot: true, SnapshotTS: 0,
		Reads: []HRead{{Cell: cell(0, 0), Hash: HashValue([]byte{0})}},
	})
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryDuplicateTimestampRejected(t *testing.T) {
	h := NewHistory()
	h.Commit(HTxn{TS: 5, Label: "a"})
	h.Commit(HTxn{TS: 5, Label: "b"})
	if err := h.Check(); err == nil {
		t.Fatal("duplicate TS accepted")
	}
}

func TestHistoryUnloadedCellRejected(t *testing.T) {
	h := NewHistory()
	h.Commit(HTxn{TS: 1, Reads: []HRead{{Cell: cell(0, 0), Hash: 1}}})
	if err := h.Check(); err == nil {
		t.Fatal("read of unloaded cell accepted")
	}
}

func TestHistoryFinalState(t *testing.T) {
	h := NewHistory()
	h.SetInitial(cell(0, 0), []byte{0})
	h.Commit(HTxn{TS: 2, Writes: []HWrite{{Cell: cell(0, 0), Hash: HashValue([]byte{2})}}})
	h.Commit(HTxn{TS: 1, Writes: []HWrite{{Cell: cell(0, 0), Hash: HashValue([]byte{1})}}})
	fs := h.FinalState()
	if fs[cell(0, 0)] != HashValue([]byte{2}) {
		t.Fatal("final state not the highest-TS write")
	}
}

// Property: a history of increments committed in TS order always
// checks out, and swapping two adjacent conflicting reads breaks it.
func TestQuickHistoryIncrementChain(t *testing.T) {
	f := func(n uint8) bool {
		steps := int(n%20) + 2
		h := NewHistory()
		h.SetInitial(cell(0, 0), []byte{0})
		for i := 0; i < steps; i++ {
			h.Commit(HTxn{TS: uint64(i + 1),
				Reads:  []HRead{{Cell: cell(0, 0), Hash: HashValue([]byte{byte(i)})}},
				Writes: []HWrite{{Cell: cell(0, 0), Hash: HashValue([]byte{byte(i + 1)})}},
			})
		}
		if h.Check() != nil {
			return false
		}
		// Corrupt one read.
		h.Txns[steps/2].Reads[0].Hash = HashValue([]byte{255})
		return h.Check() != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConflictTrackerHolders(t *testing.T) {
	r := newRow()
	r.Acquire(1, 0, 0b011, 0b011)
	r.Acquire(2, 0, 0b110, 0b110) // second holder shares cell 1
	if got := r.HolderCells(); got != 0b111 {
		t.Fatalf("holders = %b", got)
	}
	r.Release(1)
	if got := r.HolderCells(); got != 0b110 {
		t.Fatalf("holders after one unlock = %b (cell 1 still held)", got)
	}
	r.Release(2)
	if got := r.HolderCells(); got != 0 {
		t.Fatalf("holders after full unlock = %b", got)
	}
}

func TestConflictTrackerUnbalancedUnlockPanics(t *testing.T) {
	r := newRow()
	r.Acquire(1, 0, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unbalanced unlock")
		}
	}()
	r.Release(2)
}

func TestConflictTrackerChangedSince(t *testing.T) {
	r := newRow()
	r.Update(10, 0, 0b001)
	r.Update(20, 0, 0b010)
	r.Update(30, 0, 0b100)
	if got := r.ChangedSince(10); got != 0b110 {
		t.Fatalf("ChangedSince(10) = %b", got)
	}
	if got := r.ChangedSince(30); got != 0 {
		t.Fatalf("ChangedSince(30) = %b", got)
	}
	// Overflowing the ring makes old queries conservative (all ones).
	for i := 0; i < historyLen+2; i++ {
		r.Update(uint64(100+i), 0, 1)
	}
	if got := r.ChangedSince(10); got != ^uint64(0) {
		t.Fatalf("evicted history not conservative: %b", got)
	}
}

func TestIsFalseConflict(t *testing.T) {
	if !IsFalseConflict(0b001, 0b110) {
		t.Fatal("disjoint masks not false")
	}
	if IsFalseConflict(0b011, 0b110) {
		t.Fatal("overlapping masks false")
	}
	if IsFalseConflict(0b011, 0) {
		t.Fatal("unattributed abort (no conflicting cells) false")
	}
}

func TestRetryPolicyBackoffGrowsAndCaps(t *testing.T) {
	r := RetryPolicy{Base: 2 * sim.Microsecond, Max: 16 * sim.Microsecond}
	rng := rand.New(rand.NewSource(1))
	prev := sim.Duration(0)
	for attempt := 1; attempt <= 8; attempt++ {
		d := r.Backoff(attempt, rng)
		if d < prev && d != r.Max {
			t.Fatalf("backoff shrank before cap: %v after %v", d, prev)
		}
		if d > r.Max {
			t.Fatalf("backoff %v above max", d)
		}
		prev = d
	}
	if r.Backoff(100, rng) != r.Max {
		t.Fatal("backoff not capped")
	}
}

func TestCostModel(t *testing.T) {
	c := CostModel{PerOp: 100, PerCell: 10}
	if c.OpCost(5) != 150 {
		t.Fatalf("OpCost(5) = %v", c.OpCost(5))
	}
}

func TestTxnComputeReadOnly(t *testing.T) {
	t1 := &Txn{Blocks: []Block{{Ops: []Op{{ReadCells: []int{0}}}}}}
	t1.ComputeReadOnly()
	if !t1.ReadOnly {
		t.Fatal("pure read txn not read-only")
	}
	t2 := &Txn{Blocks: []Block{
		{Ops: []Op{{ReadCells: []int{0}}}},
		{Ops: []Op{{WriteCells: []int{1}}}},
	}}
	t2.ComputeReadOnly()
	if t2.ReadOnly {
		t.Fatal("writing txn marked read-only")
	}
	if t2.NumOps() != 2 {
		t.Fatalf("NumOps = %d", t2.NumOps())
	}
}

func TestOpResolveKey(t *testing.T) {
	op := Op{Key: 5}
	if op.ResolveKey(nil) != 5 {
		t.Fatal("static key")
	}
	op.KeyFn = func(state any) layout.Key { return layout.Key(state.(int) * 2) }
	if op.ResolveKey(21) != 42 {
		t.Fatal("dynamic key")
	}
}

func TestTSOMonotonic(t *testing.T) {
	tso := &TSO{}
	prev := uint64(0)
	for i := 0; i < 100; i++ {
		ts := tso.Next()
		if ts <= prev {
			t.Fatal("TSO not monotonic")
		}
		prev = ts
	}
	if tso.Last() != prev {
		t.Fatal("Last mismatch")
	}
}

func TestAbortReasonStrings(t *testing.T) {
	for r := AbortNone; r <= AbortWait; r++ {
		if r.String() == "" {
			t.Fatalf("empty string for %d", r)
		}
	}
}
