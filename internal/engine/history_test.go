package engine

import (
	"strings"
	"testing"
)

// TestSnapshotReadSerializesAtSnapshotTS: a read-only MVCC transaction
// that ran at snapshot s must validate against the serial prefix at s
// — just after the writer that produced s — not against the state at
// its own (later) commit timestamp.
func TestSnapshotReadSerializesAtSnapshotTS(t *testing.T) {
	x := cell(7, 0)
	a, b, c := HashValue([]byte("a")), HashValue([]byte("b")), HashValue([]byte("c"))

	build := func() *History {
		h := NewHistory()
		h.SetInitial(x, []byte("a"))
		h.Commit(HTxn{TS: 10, Label: "w1", Writes: []HWrite{{Cell: x, Hash: b}}})
		h.Commit(HTxn{TS: 20, Label: "w2", Writes: []HWrite{{Cell: x, Hash: c}}})
		return h
	}

	// The snapshot reader committed at ts 25 but reads the version the
	// snapshot at ts 10 exposes (w1's write, included in the snapshot).
	h := build()
	h.Commit(HTxn{TS: 25, Snapshot: true, SnapshotTS: 10, Label: "reader",
		Reads: []HRead{{Cell: x, Hash: b}}})
	if err := h.Check(); err != nil {
		t.Fatalf("snapshot read of the snapshot-time version rejected: %v", err)
	}

	// The same reads claimed as a plain transaction at ts 25 must fail:
	// the serial prefix there already holds w2's value.
	h = build()
	h.Commit(HTxn{TS: 25, Label: "reader", Reads: []HRead{{Cell: x, Hash: b}}})
	if err := h.Check(); err == nil {
		t.Fatal("stale read at commit timestamp accepted for a non-snapshot txn")
	}

	// Conversely a snapshot reader must NOT see writes past its
	// snapshot, even ones before its commit timestamp.
	h = build()
	h.Commit(HTxn{TS: 25, Snapshot: true, SnapshotTS: 10, Label: "reader",
		Reads: []HRead{{Cell: x, Hash: c}}})
	if err := h.Check(); err == nil {
		t.Fatal("snapshot reader observing a post-snapshot write accepted")
	}

	// A snapshot at ts 0 predates w1: it reads the initial value.
	h = build()
	h.Commit(HTxn{TS: 30, Snapshot: true, SnapshotTS: 0, Label: "reader",
		Reads: []HRead{{Cell: x, Hash: a}}})
	if err := h.Check(); err != nil {
		t.Fatalf("snapshot at the initial state rejected: %v", err)
	}
}

// TestStaleReadViolatesRealTime: a reader serialized before a writer
// whose commit was acknowledged (at 10) before the reader began (at 20)
// read a stale value. Serial replay accepts it, in that order; the
// real-time check must not.
func TestStaleReadViolatesRealTime(t *testing.T) {
	x := cell(7, 0)
	b := HashValue([]byte("b"))
	h := NewHistory()
	h.SetInitial(x, []byte("a"))
	h.Commit(HTxn{ID: 1, Label: "writer", TS: 10, Begin: 5, Ack: 10, Writes: []HWrite{{Cell: x, Hash: b}}})
	h.Commit(HTxn{ID: 2, Label: "reader", TS: 12, Snapshot: true, SnapshotTS: 9, Begin: 20, Ack: 25,
		Reads: []HRead{{Cell: x, Hash: HashValue([]byte("a"))}}})
	err := h.Check()
	if err == nil {
		t.Fatal("stale read after the writer's acknowledgement accepted")
	}
	for _, want := range []string{"txn 2 reader (ts 9)", "txn 1 writer (ts 10)", "began at 20", "acknowledged at 10", "Key:7"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}

	// Begun before the acknowledgement, the same reader is concurrent
	// with the writer and may serialize before it.
	h.Txns[1].Begin = 8
	if err := h.Check(); err != nil {
		t.Fatalf("concurrent reader serialized before the writer rejected: %v", err)
	}
}

// TestNonConflictingInversionAccepted: two snapshot readers whose
// serial order inverts real time share no written cell, so no
// transaction can tell; the check accepts them.
func TestNonConflictingInversionAccepted(t *testing.T) {
	x, y := cell(1, 0), cell(2, 0)
	a := HashValue([]byte("a"))
	h := NewHistory()
	h.SetInitial(x, []byte("a"))
	h.SetInitial(y, []byte("a"))
	h.Commit(HTxn{ID: 1, Label: "late", TS: 3, Snapshot: true, SnapshotTS: 1, Begin: 50, Ack: 60,
		Reads: []HRead{{Cell: x, Hash: a}, {Cell: y, Hash: a}}})
	h.Commit(HTxn{ID: 2, Label: "early", TS: 4, Snapshot: true, SnapshotTS: 2, Begin: 10, Ack: 20,
		Reads: []HRead{{Cell: x, Hash: a}, {Cell: y, Hash: a}}})
	h.Commit(HTxn{ID: 3, Label: "elsewhere", TS: 5, Begin: 0, Ack: 5,
		Writes: []HWrite{{Cell: cell(3, 0), Hash: a}}})
	if err := h.Check(); err != nil {
		t.Fatalf("non-conflicting inversion rejected: %v", err)
	}
}

// TestSnapshotReadersShareTimestamps: snapshot transactions claim no
// serial slot of their own, so several may serialize at the same
// snapshot (and at a writer's timestamp) without tripping the
// duplicate-commit-timestamp check.
func TestSnapshotReadersShareTimestamps(t *testing.T) {
	x := cell(7, 0)
	b := HashValue([]byte("b"))
	h := NewHistory()
	h.SetInitial(x, []byte("a"))
	h.Commit(HTxn{TS: 10, Label: "w1", Writes: []HWrite{{Cell: x, Hash: b}}})
	h.Commit(HTxn{TS: 10, Snapshot: true, SnapshotTS: 10, Label: "r1",
		Reads: []HRead{{Cell: x, Hash: b}}})
	h.Commit(HTxn{TS: 10, Snapshot: true, SnapshotTS: 10, Label: "r2",
		Reads: []HRead{{Cell: x, Hash: b}}})
	if err := h.Check(); err != nil {
		t.Fatalf("snapshot readers sharing a timestamp rejected: %v", err)
	}

	// Two plain writers on one timestamp stay illegal.
	h.Commit(HTxn{TS: 10, Label: "w1-dup", Writes: []HWrite{{Cell: x, Hash: b}}})
	if err := h.Check(); err == nil {
		t.Fatal("duplicate writer timestamp accepted")
	}
}
