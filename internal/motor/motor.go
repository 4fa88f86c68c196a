// Package motor implements the Motor baseline (Zhang, Hua, Yang,
// "Motor: Enabling Multi-Versioning for Distributed Transactions on
// Disaggregated Memory", OSDI 2024) as the CREST paper evaluates it:
// record-level optimistic concurrency control with a consecutive
// version table per record.
//
// Motor's defining traits, reproduced here:
//
//   - every record carries MotorSlots full versions plus one metadata
//     word per version, stored consecutively so no chain traversal is
//     needed;
//   - reads fetch the whole consecutive version table (header, slot
//     metadata and all version payloads) in one READ and pick the
//     visible version locally — larger payloads than the single-version
//     baselines, which is Motor's space/bandwidth trade;
//   - fully read-only transactions take a start snapshot and commit
//     without any validation round-trip: a writer holds the record
//     lock from before its commit timestamp is issued until its
//     version is installed, so a reader that retries while the lock is
//     held always observes every version older than its snapshot;
//   - read-write transactions validate their read set (version hint +
//     lock) like FORD, then install into the oldest version slot.
//
// The fetch / validate / log / install skeleton is the strict attempt
// driver's (internal/engine/strict.go); this package is Motor's record
// format under it.
package motor

import (
	"encoding/binary"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/rdma"
	"crest/internal/sim"
)

const (
	// lockedReadRetries bounds how long a snapshot reader spins on a
	// locked record before aborting the attempt. The spin only needs
	// to cover a committing writer's install window (a couple of
	// round-trips); spinning across a whole lock tenure captures
	// coordinators under contention.
	lockedReadRetries = 3
	lockedReadBackoff = 2 * sim.Microsecond
)

// New creates a Motor system on db.
func New(db *engine.DB) *engine.StrictSystem[rec] {
	return engine.NewStrictSystem[rec](db, format{})
}

// rec is Motor's per-record attempt state; the working copy (Work.Data)
// is the cell data of the one version read.
type rec struct {
	lay    *layout.MotorRecord
	victim int    // slot to install into
	newest uint64 // newest ts observed at fetch
}

type work = engine.Work[rec]

// format is Motor's record format: FORD's header (lock word, version
// hint), then a table of MotorSlots version-metadata words, then that
// many full copies of the record data.
type format map[layout.TableID]*layout.MotorRecord

func (format) Name() string { return "Motor" }

func (f format) AddTable(sc layout.Schema) int {
	f[sc.ID] = layout.NewMotorRecord(sc)
	return f[sc.ID].PaddedSize()
}

// Encode writes the initial cell values into version slot 0.
func (f format) Encode(buf []byte, table layout.TableID, key layout.Key, cells [][]byte) {
	binary.LittleEndian.PutUint64(buf[layout.BOffKey:], uint64(key))
	binary.LittleEndian.PutUint32(buf[layout.BOffTableID:], uint32(table))
	layout.PutWord(buf, f[table].SlotMetaOff(0), layout.PackSlotMeta(true, 0))
	for i, v := range cells {
		copy(buf[f[table].SlotCellOff(0, i):], v)
	}
}

// SnapshotRead: fully read-only transactions take a start snapshot for
// MVCC reads.
func (format) SnapshotRead(t *engine.Txn) bool { return t.ReadOnly }

// Bind sets the lock mask to every cell: the lock is the record's one
// lock word, so a holder of any cell blocks every other.
func (f format) Bind(w *work) {
	w.X.lay = f[w.Table]
	w.Lock = layout.AllCellsMask(len(w.X.lay.Schema.CellSizes))
}

func (format) LockOp(c *engine.Coord, w *work) (rdma.Op, bool) {
	return rdma.Op{Kind: rdma.OpCAS, Off: w.Off + layout.BOffLock, Compare: 0, Swap: c.GID}, w.Op.IsWrite()
}

func (format) UnlockOp(c *engine.Coord, w *work) rdma.Op {
	return rdma.Op{Kind: rdma.OpCAS, Off: w.Off + layout.BOffLock, Compare: c.GID, Swap: 0}
}

// FetchLen covers the whole consecutive version table: one READ returns
// the header, every version's metadata and every version's data, so the
// coordinator picks the visible version locally — no chain traversal,
// which is exactly Motor's layout argument.
func (format) FetchLen(w *work) int { return w.X.lay.Size() }

// Parse picks the version to read and the slot to install into. A
// snapshot read that lands on a locked record (a committing writer's
// install may be in flight) is fetched again.
func (format) Parse(w *work, data []byte, snap engine.Snapshot) (engine.FetchStatus, uint64) {
	if snap.Read && binary.LittleEndian.Uint64(data[layout.BOffLock:]) != 0 {
		return engine.FetchRetry, w.Cells
	}
	slot, victim, newest, found := chooseSlots(data, w.X.lay, snap)
	if !found {
		// Every version is newer than our snapshot: the history we
		// need has been overwritten.
		return engine.FetchStale, 0
	}
	w.X.victim, w.X.newest = victim, newest
	w.Data = append(w.Data[:0], data[w.X.lay.SlotDataOff(slot):][:w.X.lay.Schema.DataBytes()]...)
	return engine.FetchOK, 0
}

func (format) Refetch(_ *sim.Proc, round int) (sim.Duration, bool) {
	return lockedReadBackoff, round < lockedReadRetries
}

func (format) NodeMajor() bool { return false }

// chooseSlots picks the version to read (newest visible) and the slot
// to overwrite on install (oldest or invalid).
func chooseSlots(meta []byte, lay *layout.MotorRecord, snap engine.Snapshot) (slot, victim int, newest uint64, found bool) {
	slot, victim = -1, -1
	var bestTS, victimTS uint64
	victimTS = ^uint64(0)
	for i := 0; i < layout.MotorSlots; i++ {
		valid, ts := layout.UnpackSlotMeta(binary.LittleEndian.Uint64(meta[lay.SlotMetaOff(i):]))
		if !valid {
			victim, victimTS = i, 0
			continue
		}
		if ts > newest {
			newest = ts
		}
		if snap.Read && ts > snap.TS {
			continue
		}
		if slot == -1 || ts >= bestTS {
			slot, bestTS = i, ts
		}
		if ts < victimTS {
			victim, victimTS = i, ts
		}
	}
	return slot, victim, newest, slot != -1
}

func (format) Cell(w *work, cell int) []byte {
	return w.Data[w.X.lay.DataCellOff(cell):][:w.X.lay.Schema.CellSizes[cell]]
}

// ValidateOp re-reads lock, version hint and slot metadata of a
// read-only record.
func (format) ValidateOp(w *work, _ sim.Duration) (rdma.Op, bool) {
	const n = 8 + 8 + layout.MotorSlots*layout.MotorSlotMetaSize
	return rdma.Op{Kind: rdma.OpRead, Off: w.Off + layout.BOffLock, Len: n}, !w.Locked
}

func (format) Check(w *work, data []byte, _ sim.Duration) (cells, since uint64, locked, ok bool) {
	lock := binary.LittleEndian.Uint64(data)
	newest := uint64(0)
	for i := 0; i < layout.MotorSlots; i++ {
		valid, ts := layout.UnpackSlotMeta(binary.LittleEndian.Uint64(data[16+i*layout.MotorSlotMetaSize:]))
		if valid && ts > newest {
			newest = ts
		}
	}
	return w.Cells, w.X.newest, lock != 0, lock == 0 && newest == w.X.newest
}

// AppendLog builds the redo-log entry (Motor logs new versions; MVCC
// needs no undo): ts, then per written record its table, key and new
// version data.
func (format) AppendLog(buf []byte, _ *engine.Coord, ws []*work, ts uint64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, ts)
	count := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	n := uint32(0)
	for _, w := range ws {
		if !w.Locked {
			continue
		}
		n++
		buf = binary.LittleEndian.AppendUint32(buf, uint32(w.Table))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(w.Key))
		buf = append(buf, w.Data...)
	}
	binary.LittleEndian.PutUint32(buf[count:], n)
	return buf
}

// Install writes the new version into the victim slot, ordered within
// the round-trip: data, then the metadata word that makes it visible,
// then the version hint (the unlock follows).
func (format) Install(_ *sim.Proc, _ *engine.Coord, w *work, ts uint64, arena *engine.Arena, ops []rdma.Op) []rdma.Op {
	metaWord := arena.Bytes(8)
	binary.LittleEndian.PutUint64(metaWord, layout.PackSlotMeta(true, ts))
	verWord := arena.Bytes(8)
	binary.LittleEndian.PutUint64(verWord, ts)
	return append(ops,
		rdma.Op{Kind: rdma.OpWrite, Off: w.Off + uint64(w.X.lay.SlotDataOff(w.X.victim)), Data: w.Data},
		rdma.Op{Kind: rdma.OpWrite, Off: w.Off + uint64(w.X.lay.SlotMetaOff(w.X.victim)), Data: metaWord},
		rdma.Op{Kind: rdma.OpWrite, Off: w.Off + layout.BOffVersion, Data: verWord})
}
