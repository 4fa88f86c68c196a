package engine

import (
	"fmt"
	"hash/fnv"
	"sort"

	"crest/internal/layout"
	"crest/internal/sim"
	"crest/internal/trace"
)

// History records every committed transaction's cell-level reads and
// writes so tests can verify strict serializability: replaying the
// commits in timestamp order must reproduce every observed read, and
// no conflicting pair may be ordered against real time. It is the
// observers' test oracle: a nil-safe view behind Observers (nil is
// off), sharded per partition like the other four, fed at commit
// through the observer context (CommitRecs) at zero virtual cost.
type History struct {
	Txns []HTxn
	Init map[CellID]uint64 // shared by the whole family
	fam  trace.Family[History]
}

// CellID addresses one cell of one record.
type CellID struct {
	Table layout.TableID
	Key   layout.Key
	Cell  int
}

// HTxn is one committed transaction in the history.
type HTxn struct {
	// ID and Label are the transaction's identity in every view.
	ID    uint64
	Label string
	// TS is the commit timestamp claimed as the serial position.
	TS uint64
	// Snapshot marks a read-only MVCC transaction that serialized at
	// SnapshotTS instead of TS.
	Snapshot   bool
	SnapshotTS uint64
	// Begin is when the transaction's first attempt began, Ack when its
	// commit was acknowledged.
	Begin, Ack sim.Time
	Reads      []HRead
	Writes     []HWrite
}

// HRead is one observed cell read.
type HRead struct {
	Cell CellID
	Hash uint64
}

// HWrite is one installed cell value.
type HWrite struct {
	Cell CellID
	Hash uint64
}

// NewHistory returns an empty recorder; Load fills in the initial cell
// values.
func NewHistory() *History {
	return &History{Init: map[CellID]uint64{}}
}

// HashValue condenses a cell value for history comparison.
func HashValue(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Shard returns the member partition part of parts records into (see
// trace.Family.Shard); every member shares the root's initial state.
func (h *History) Shard(part, parts int) *History {
	if h == nil {
		return nil
	}
	return h.fam.Shard("engine", h, part, parts, func(f trace.Family[History]) *History {
		return &History{Init: h.Init, fam: f}
	})
}

// Snapshot returns the family's history: every member's commits, the
// root's first and then each partition's in partition order.
func (h *History) Snapshot() *History {
	s := &History{Init: h.Init}
	for _, m := range h.fam.Members(h) {
		s.Txns = append(s.Txns, m.Txns...)
	}
	return s
}

// SetInitial records the pre-load value of a cell.
func (h *History) SetInitial(c CellID, value []byte) {
	if h != nil {
		h.Init[c] = HashValue(value)
	}
}

// Commit appends a committed transaction.
func (h *History) Commit(t HTxn) {
	if h != nil {
		h.Txns = append(h.Txns, t)
	}
}

// serialPos returns the transaction's position in the claimed serial
// order: snapshot transactions serialize at their snapshot, just
// after the writer that produced that timestamp (a snapshot at s
// includes the version committed at s).
func (t *HTxn) serialPos() (uint64, int) {
	if t.Snapshot {
		return t.SnapshotTS, 1
	}
	return t.TS, 0
}

// serial returns a copy of the transactions in claimed serial order,
// ties in recording order.
func (h *History) serial() []HTxn {
	txns := append([]HTxn(nil), h.Txns...)
	sort.SliceStable(txns, func(i, j int) bool {
		ti, bi := txns[i].serialPos()
		tj, bj := txns[j].serialPos()
		if ti != tj {
			return ti < tj
		}
		return bi < bj
	})
	return txns
}

// Check replays the history in claimed serial order and verifies that
// every read observed exactly the value the serial execution would
// produce, then that the order respects real time (realTime). It
// returns nil iff the history is strictly serializable in that order.
func (h *History) Check() error {
	txns := h.serial()
	state := make(map[CellID]uint64, len(h.Init))
	for k, v := range h.Init {
		state[k] = v
	}
	seen := map[uint64]string{}
	for i := range txns {
		t := &txns[i]
		if !t.Snapshot {
			if prev, dup := seen[t.TS]; dup {
				return fmt.Errorf("engine: duplicate commit timestamp %d (%s and %s)",
					t.TS, prev, t.Label)
			}
			seen[t.TS] = t.Label
		}
		for _, r := range t.Reads {
			want, ok := state[r.Cell]
			if !ok {
				return fmt.Errorf("engine: txn %s (ts %d) read unloaded cell %+v",
					t.Label, t.TS, r.Cell)
			}
			if r.Hash != want {
				return fmt.Errorf("engine: txn %s (ts %d) read cell %+v value %x; serial replay has %x",
					t.Label, t.TS, r.Cell, r.Hash, want)
			}
		}
		for _, w := range t.Writes {
			state[w.Cell] = w.Hash
		}
	}
	return realTime(txns)
}

// realTime rejects a pair of transactions that touch a common cell, at
// least one of them writing it, when the later-serialized one was
// acknowledged before the earlier one began. txns is in serial order.
// The check is per conflicting pair, not per history: per-partition
// timestamp oracles let a read-only snapshot serialize before a
// transaction acknowledged before it began (25 of the 2 538
// transactions of a 3-group Motor SmallBank run), but no such pair
// shares a cell either writes, so no transaction can observe it. The
// per-pair form found no violation on any of five systems × {3-group
// SmallBank at workers 1 and 4, unsharded SmallBank, unsharded TPC-C}.
func realTime(txns []HTxn) error {
	// last[c] holds, of the transactions serialized so far, the writer
	// ([0]) and the reader ([1]) of c that began last.
	last := map[CellID]*[2]*HTxn{}
	visit := func(b *HTxn, c CellID, kind int) error {
		l := last[c]
		if l == nil {
			l = new([2]*HTxn)
			last[c] = l
		}
		for k, a := range l {
			// A read conflicts with earlier writes, a write with both.
			if a != nil && (kind == 0 || k == 0) && b.Ack < a.Begin {
				ats, _ := a.serialPos()
				bts, _ := b.serialPos()
				return fmt.Errorf("engine: txn %d %s (ts %d) is serialized before txn %d %s (ts %d) on cell %+v but began at %d, after the other was acknowledged at %d",
					a.ID, a.Label, ats, b.ID, b.Label, bts, c, a.Begin, b.Ack)
			}
		}
		if l[kind] == nil || b.Begin > l[kind].Begin {
			l[kind] = b
		}
		return nil
	}
	for i := range txns {
		b := &txns[i]
		for _, w := range b.Writes {
			if err := visit(b, w.Cell, 0); err != nil {
				return err
			}
		}
		for _, r := range b.Reads {
			if err := visit(b, r.Cell, 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// FinalState returns the cell values after serial replay, for
// comparing against the memory pool's actual contents.
func (h *History) FinalState() map[CellID]uint64 {
	state := make(map[CellID]uint64, len(h.Init))
	for k, v := range h.Init {
		state[k] = v
	}
	for _, t := range h.serial() {
		for _, w := range t.Writes {
			state[w.Cell] = w.Hash
		}
	}
	return state
}
