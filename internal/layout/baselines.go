package layout

import (
	"encoding/binary"
	"fmt"
)

// Baseline header constants. FORD and Motor manage concurrency at
// record granularity: one lock word and one version word per record.
// The lock is acquired with CAS(0 → owner id), which needs its own
// word (a combined lock+version word would make the compare value
// unknowable to the locker).
const (
	// BaselineHeaderSize holds Key (8), TableID (4, 4 reserved), the
	// 8-byte lock word and the 8-byte version word.
	BaselineHeaderSize = 32
	BOffKey            = 0
	BOffTableID        = 8
	BOffLock           = 16 // 8-byte word: 0 = free, else owner id
	BOffVersion        = 24 // 8-byte word: low 48 bits = commit version

	// BaselineLockBit is the lock flag inside a packed lock+version
	// word (used by log entries and diagnostics).
	BaselineLockBit = uint64(1) << 63

	// MotorSlots is the length of Motor's consecutive version table.
	// The Motor paper sizes the vcell array per table; four slots is
	// its common configuration and what the Table 1 space analysis
	// assumes.
	MotorSlots = 4

	// MotorSlotMetaSize is the per-version metadata: 48-bit commit
	// timestamp, version-valid flag and slot bookkeeping.
	MotorSlotMetaSize = 8
)

// PackVersionWord combines the lock flag and a 48-bit version.
func PackVersionWord(locked bool, version uint64) uint64 {
	if version > MaxTS48 {
		panic(fmt.Sprintf("layout: version %d exceeds 48 bits", version))
	}
	w := version
	if locked {
		w |= BaselineLockBit
	}
	return w
}

// UnpackVersionWord splits a baseline lock+version word.
func UnpackVersionWord(w uint64) (locked bool, version uint64) {
	return w&BaselineLockBit != 0, w & MaxTS48
}

// FORDRecord is the FORD baseline layout: a 24-byte header followed by
// the raw cell values, with no per-cell metadata.
type FORDRecord struct {
	Schema  Schema
	size    int
	cellOff []int // offset of each cell within the value bytes
}

// NewFORDRecord builds the FORD layout for s.
func NewFORDRecord(s Schema) *FORDRecord {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return &FORDRecord{Schema: s, size: BaselineHeaderSize + s.DataBytes(), cellOff: dataOffsets(s)}
}

// dataOffsets returns each cell's offset within a record's value
// bytes, which the baselines store back to back.
func dataOffsets(s Schema) []int {
	offs := make([]int, len(s.CellSizes))
	off := 0
	for i, c := range s.CellSizes {
		offs[i] = off
		off += c
	}
	return offs
}

// Size returns the unpadded record size.
func (r *FORDRecord) Size() int { return r.size }

// PaddedSize returns the record size rounded up to cachelines.
func (r *FORDRecord) PaddedSize() int { return pad(r.size, Cacheline) }

// DataOff returns the offset of the record's value bytes.
func (r *FORDRecord) DataOff() int { return BaselineHeaderSize }

// CellValueOff returns the offset of cell i's value bytes (values are
// stored back to back).
func (r *FORDRecord) CellValueOff(i int) int { return BaselineHeaderSize + r.cellOff[i] }

// MotorRecord is the Motor baseline layout: a 24-byte header, a
// consecutive table of MotorSlots version-metadata words, then
// MotorSlots full copies of the record data. Storing the versions
// consecutively is Motor's key layout idea: one READ fetches every
// version without chain traversal.
type MotorRecord struct {
	Schema  Schema
	size    int
	cellOff []int // offset of each cell within one version's data
}

// NewMotorRecord builds the Motor layout for s.
func NewMotorRecord(s Schema) *MotorRecord {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	size := BaselineHeaderSize + MotorSlots*MotorSlotMetaSize + MotorSlots*s.DataBytes()
	return &MotorRecord{Schema: s, size: size, cellOff: dataOffsets(s)}
}

// Size returns the unpadded record size.
func (r *MotorRecord) Size() int { return r.size }

// PaddedSize returns the record size rounded up to cachelines.
func (r *MotorRecord) PaddedSize() int { return pad(r.size, Cacheline) }

// SlotMetaOff returns the offset of version slot i's metadata word.
func (r *MotorRecord) SlotMetaOff(i int) int {
	return BaselineHeaderSize + i*MotorSlotMetaSize
}

// SlotDataOff returns the offset of version slot i's data copy.
func (r *MotorRecord) SlotDataOff(i int) int {
	return BaselineHeaderSize + MotorSlots*MotorSlotMetaSize + i*r.Schema.DataBytes()
}

// DataCellOff returns the offset of cell c within one version's data.
func (r *MotorRecord) DataCellOff(c int) int { return r.cellOff[c] }

// SlotCellOff returns the offset of cell c inside version slot i.
func (r *MotorRecord) SlotCellOff(i, c int) int { return r.SlotDataOff(i) + r.cellOff[c] }

// PackSlotMeta encodes a Motor version slot's metadata: valid flag and
// 48-bit commit timestamp.
func PackSlotMeta(valid bool, ts uint64) uint64 {
	if ts > MaxTS48 {
		panic(fmt.Sprintf("layout: timestamp %d exceeds 48 bits", ts))
	}
	w := ts
	if valid {
		w |= 1 << 63
	}
	return w
}

// UnpackSlotMeta decodes a Motor version slot's metadata.
func UnpackSlotMeta(w uint64) (valid bool, ts uint64) {
	return w&(1<<63) != 0, w & MaxTS48
}

// ReadWord reads the 8-byte little-endian word at off in buf.
func ReadWord(buf []byte, off int) uint64 { return binary.LittleEndian.Uint64(buf[off:]) }

// PutWord writes the 8-byte little-endian word at off in buf.
func PutWord(buf []byte, off int, w uint64) { binary.LittleEndian.PutUint64(buf[off:], w) }

// System names one of the three implemented systems, for the space
// model.
type System int

// The systems compared in Table 1.
const (
	SysFORD System = iota
	SysMotor
	SysCREST
)

// String returns the system's name.
func (s System) String() string {
	switch s {
	case SysFORD:
		return "FORD"
	case SysMotor:
		return "Motor"
	case SysCREST:
		return "CREST"
	}
	return fmt.Sprintf("System(%d)", int(s))
}

// SpaceUsage is the per-record space accounting behind Table 1.
type SpaceUsage struct {
	Data  int // one copy of the record's values
	Meta  int // everything that is not value payload (incl. extra MVCC copies)
	Total int // stored footprint (= Data + Meta, padded if requested)
}

// OverheadPct returns Meta as a percentage of Data, the paper's
// space-overhead metric.
func (u SpaceUsage) OverheadPct() float64 {
	if u.Data == 0 {
		return 0
	}
	return 100 * float64(u.Meta) / float64(u.Data)
}

// Space computes the per-record space usage of system sys for schema
// s. With padded=false it counts raw bytes (Table 1a); with
// padded=true every record (and for CREST every cell slot) is aligned
// to 64-byte cachelines (Table 1b), and the padding counts as
// metadata.
func Space(sys System, s Schema, padded bool) SpaceUsage {
	s = s.Normalize()
	data := s.DataBytes()
	var total int
	switch sys {
	case SysFORD:
		r := NewFORDRecord(s)
		total = r.Size()
		if padded {
			total = r.PaddedSize()
		}
	case SysMotor:
		r := NewMotorRecord(s)
		total = r.Size()
		if padded {
			total = r.PaddedSize()
		}
	case SysCREST:
		if padded {
			total = NewRecord(s).Size()
		} else {
			total = HeaderSize + s.NumCells()*CellVersionSize + data
			// Without padding the header shrinks to the fields in
			// use: key, table id, lock, and one EN per actual cell.
			total -= (MaxENCells - s.NumCells()) * 2
		}
	default:
		panic("layout: unknown system")
	}
	return SpaceUsage{Data: data, Meta: total - data, Total: total}
}
