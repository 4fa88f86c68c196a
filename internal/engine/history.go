package engine

import (
	"fmt"
	"hash/fnv"
	"sort"

	"crest/internal/layout"
)

// History records every committed transaction's cell-level reads and
// writes so tests can verify serializability: replaying the commits in
// timestamp order must reproduce every observed read. It is
// instrumentation — engines only feed it when enabled, at zero virtual
// cost.
type History struct {
	On    bool
	Txns  []HTxn
	Init  map[CellID]uint64
	label string
}

// CellID addresses one cell of one record.
type CellID struct {
	Table layout.TableID
	Key   layout.Key
	Cell  int
}

// HTxn is one committed transaction in the history.
type HTxn struct {
	// TS is the commit timestamp claimed as the serial position.
	TS uint64
	// Snapshot marks a read-only MVCC transaction that serialized at
	// SnapshotTS instead of TS.
	Snapshot   bool
	SnapshotTS uint64
	Reads      []HRead
	Writes     []HWrite
	Label      string
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

// NewHistory returns an enabled recorder with the given initial cell
// values (as produced by HashValue).
func NewHistory() *History {
	return &History{On: true, Init: map[CellID]uint64{}}
}

// HashValue condenses a cell value for history comparison.
func HashValue(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Recording reports whether commits are being recorded (a nil history
// records nothing).
func (h *History) Recording() bool { return h != nil && h.On }

// SetInitial records the pre-load value of a cell.
func (h *History) SetInitial(c CellID, value []byte) {
	if !h.Recording() {
		return
	}
	h.Init[c] = HashValue(value)
}

// Fork returns a partition-private recorder sharing h's initial state:
// commits append locally, and Absorb folds them back after the run, so
// parallel partitions never contend on one slice. Forking a nil or
// disabled history returns h itself (commits no-op everywhere).
func (h *History) Fork() *History {
	if !h.Recording() {
		return h
	}
	return &History{On: true, Init: h.Init, label: h.label}
}

// Absorb appends a fork's commits to h. Callers fold forks in
// partition order so the combined slice is deterministic (Check sorts
// by serial position regardless; the order matters only for
// byte-stable dumps).
func (h *History) Absorb(sub *History) {
	if !h.Recording() || sub == nil || sub == h {
		return
	}
	h.Txns = append(h.Txns, sub.Txns...)
}

// Commit appends a committed transaction.
func (h *History) Commit(t HTxn) {
	if !h.Recording() {
		return
	}
	h.Txns = append(h.Txns, t)
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

// Check replays the history in claimed serial order and verifies that
// every read observed exactly the value the serial execution would
// produce. It returns nil iff the history is serializable in that
// order.
func (h *History) Check() error {
	txns := append([]HTxn(nil), h.Txns...)
	sort.SliceStable(txns, func(i, j int) bool {
		ti, bi := txns[i].serialPos()
		tj, bj := txns[j].serialPos()
		if ti != tj {
			return ti < tj
		}
		return bi < bj
	})
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
	return nil
}

// FinalState returns the cell values after serial replay, for
// comparing against the memory pool's actual contents.
func (h *History) FinalState() map[CellID]uint64 {
	txns := append([]HTxn(nil), h.Txns...)
	sort.SliceStable(txns, func(i, j int) bool {
		ti, bi := txns[i].serialPos()
		tj, bj := txns[j].serialPos()
		if ti != tj {
			return ti < tj
		}
		return bi < bj
	})
	state := make(map[CellID]uint64, len(h.Init))
	for k, v := range h.Init {
		state[k] = v
	}
	for i := range txns {
		for _, w := range txns[i].Writes {
			state[w.Cell] = w.Hash
		}
	}
	return state
}

// DebugCell returns, in serial order, every committed transaction that
// touched cell c, with its serial position and value hashes — a
// debugging aid for serializability violations.
func (h *History) DebugCell(c CellID) []string {
	txns := append([]HTxn(nil), h.Txns...)
	sort.SliceStable(txns, func(i, j int) bool {
		ti, bi := txns[i].serialPos()
		tj, bj := txns[j].serialPos()
		if ti != tj {
			return ti < tj
		}
		return bi < bj
	})
	var out []string
	if v, ok := h.Init[c]; ok {
		out = append(out, fmt.Sprintf("init value=%x", v))
	}
	for _, t := range txns {
		for _, r := range t.Reads {
			if r.Cell == c {
				out = append(out, fmt.Sprintf("ts=%d snap=%v READ %x (%s)", t.TS, t.Snapshot, r.Hash, t.Label))
			}
		}
		for _, w := range t.Writes {
			if w.Cell == c {
				out = append(out, fmt.Sprintf("ts=%d snap=%v WRITE %x (%s)", t.TS, t.Snapshot, w.Hash, t.Label))
			}
		}
	}
	return out
}
