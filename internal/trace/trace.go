// Package trace is the deterministic virtual-time tracing and
// observability subsystem. A Recorder collects typed events — txn
// begin/retry/commit/abort, phase transitions, one round trip per RDMA
// doorbell batch, lock traffic on CREST local objects — into a bounded
// ring buffer keyed by (coordinator, txn, span).
//
// Because the whole system runs inside the deterministic cooperative
// simulator (internal/sim), a trace is byte-exact and replayable: two
// runs with the same seed and configuration produce identical event
// streams, and recording costs no virtual time, so the trace never
// distorts the measurement the way hardware profilers do.
//
// Every Recorder method is nil-safe: a disabled recorder is a nil
// pointer and each emission point costs exactly one pointer check on
// the hot path. An enabled one writes an 80-byte record with no pointer
// in it — strings are codes into the recorder's table — straight into
// the ring's next slot; text is built when a snapshot is rendered.
//
// On top of the raw stream sit two views (see chrome.go and report.go):
// per-txn span timelines with exact virtual-time phase durations and
// RTT attribution, and a Chrome trace_event JSON export that opens
// directly in Perfetto or chrome://tracing. Which cells are contended
// is the why recorder's ranking (internal/causality), not this one's.
package trace

import (
	"fmt"
	"math"
	"slices"

	"crest/internal/layout"
	"crest/internal/sim"
)

// Kind identifies an event type.
type Kind uint8

// The event types the subsystem records.
const (
	// Transaction lifecycle (span events).
	KindTxnBegin Kind = iota
	KindTxnRetry
	KindTxnCommit
	KindTxnAbort

	// Phase machine transitions within one attempt.
	KindPhase

	// RDMA fabric activity: one per doorbell batch, carrying its verbs
	// and bytes (round-trip attribution).
	KindRTT

	// Concurrency-control events on records.
	KindConflict      // a lock CAS lost or a validation check failed
	KindLockAcquire   // remote cell locks acquired
	KindLockPiggyback // a local txn reused already-held remote locks
	KindLockRelease   // remote cell locks released (write-back)
	KindENOverflow    // a cell's 16-bit epoch number wrapped
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindTxnBegin:
		return "txn-begin"
	case KindTxnRetry:
		return "txn-retry"
	case KindTxnCommit:
		return "txn-commit"
	case KindTxnAbort:
		return "txn-abort"
	case KindPhase:
		return "phase"
	case KindRTT:
		return "rtt"
	case KindConflict:
		return "conflict"
	case KindLockAcquire:
		return "lock-acquire"
	case KindLockPiggyback:
		return "lock-piggyback"
	case KindLockRelease:
		return "lock-release"
	case KindENOverflow:
		return "en-overflow"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Phase identifies a protocol phase within one transaction attempt.
// CREST's localized path uses all five; the strict engines collapse
// lock acquisition into PhaseExec. PhaseRelease covers abort cleanup
// (lock release / write-back after a failed attempt), which no engine
// charges to a measured phase.
type Phase uint8

// The phases of the paper's phase machine (execute → lock → validate
// → log → apply).
const (
	PhaseExec Phase = iota
	PhaseLock
	PhaseValidate
	PhaseLog
	PhaseApply
	PhaseRelease
	NumPhases
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseExec:
		return "execute"
	case PhaseLock:
		return "lock"
	case PhaseValidate:
		return "validate"
	case PhaseLog:
		return "log"
	case PhaseApply:
		return "apply"
	case PhaseRelease:
		return "release"
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// StrID is a string's code in its recorder's table (Snapshot.Str maps
// it back); 0 is the empty string. Records hold codes so that a record
// is a fixed-size value with no pointer in it: emitting one builds no
// text, and the collector never scans the ring.
type StrID uint32

// Event is one trace record, 80 bytes. Fields beyond At/Kind are
// populated per kind; zero values mean "not applicable". Integers are
// as wide as their values get: a coordinator id is 32 bits wherever it
// is used, a round-trip is microseconds.
type Event struct {
	At sim.Time // virtual time of the event

	// Span identity: the (coordinator, txn, span) key. Span is the
	// transaction's id, the one every view records it under; Txn is the
	// engine's per-attempt transaction id when one exists (CREST local
	// txn ids), else 0.
	Span uint64
	Txn  uint64

	Key  layout.Key // record identity for CC events
	Mask uint64     // cell bits involved; KindENOverflow: the wrapping cell's bit

	// Latency is the charged latency of KindRTT in nanoseconds,
	// saturating at math.MaxUint32 (4.29 s).
	Latency uint32
	Coord   uint32
	Attempt uint32
	Bytes   uint32 // KindRTT: payload bytes of the batch
	QP      uint32 // KindRTT: queue-pair id
	Table   layout.TableID

	Label  StrID // txn label
	Reason StrID // KindTxnAbort: abort classification

	Region uint16 // KindRTT: target region id
	Ops    uint16 // KindRTT: verbs in the batch

	Kind  Kind
	Phase Phase // KindPhase: phase entered; KindRTT: phase charged
	False bool  // KindTxnAbort: false conflict
}

// strTable interns strings to StrIDs. It holds transaction labels and
// abort reasons only, so the strings a run meets are few: the first few
// are found by scanning and the rest through a map built when they
// appear. A table only grows.
type strTable struct {
	strs []string // code → string; strs[0] is ""
	idx  map[string]StrID
}

// strScan is how many codes id looks through before it turns to the map.
const strScan = 16

func (t *strTable) id(s string) StrID {
	if s == "" {
		return 0
	}
	for i := 1; i < len(t.strs) && i <= strScan; i++ {
		if t.strs[i] == s {
			return StrID(i)
		}
	}
	if id, ok := t.idx[s]; ok {
		return id
	}
	if t.strs == nil {
		t.strs = []string{""}
	}
	id := StrID(len(t.strs))
	t.strs = append(t.strs, s)
	if id > strScan {
		if t.idx == nil {
			t.idx = map[string]StrID{}
		}
		t.idx[s] = id
	}
	return id
}

// Span is a logical transaction's identity as every view keys it —
// coordinator, id, label, attempt — plus the phase the running attempt
// is in, so fabric events and wire time can be attributed without the
// fabric knowing about phase machines. The engine owns it: it lives by
// value in the observer context of the process running the transaction
// (engine.BeginAttempt), which issues the id and moves the attempt and
// the phase; the recorders only read it.
type Span struct {
	Coord   uint64
	ID      uint64
	Label   string
	Attempt int
	Txn     uint64 // engine-assigned txn id, 0 until known
	Phase   Phase
}

// SetTxn records the engine's transaction id once drawn.
func (s *Span) SetTxn(id uint64) {
	if s != nil {
		s.Txn = id
	}
}

// Recorder collects events into a bounded ring buffer. It is owned by
// one simulation environment; the cooperative scheduler serializes all
// emissions, so no locking is needed. The zero Recorder is unusable;
// a nil *Recorder is the disabled state and every method tolerates it.
type Recorder struct {
	ring Ring[Event]
	strs strTable // Event.Label and Event.Reason

	// Partition-recorder mode (Shard, see Family): a root recorder
	// hands each simulation partition its own child and merges the
	// children deterministically at snapshot time.
	fam Family[Recorder]
}

// DefaultCapacity bounds the ring buffer when the caller does not.
const DefaultCapacity = 1 << 17

// NewRecorder returns an enabled recorder holding at most capacity
// events (DefaultCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{ring: NewRing[Event](capacity)}
}

// Shard returns the child recorder owned by partition part of parts
// (see Family.Shard). Each child is written only by its partition's
// worker — no locking — and the root's Snapshot merges the children
// into one deterministic stream. A nil recorder or parts <= 1 returns
// the receiver unchanged.
func (r *Recorder) Shard(part, parts int) *Recorder {
	if r == nil {
		return nil
	}
	return r.fam.Shard("trace", r, part, parts, func(f Family[Recorder]) *Recorder {
		return &Recorder{ring: NewRing[Event](r.ring.Cap()), fam: f}
	})
}

// emit claims the ring's next slot (evicting the oldest event on
// overflow) as an event of kind k at time at, every other field zero,
// for the caller to fill in place.
func (r *Recorder) emit(at sim.Time, k Kind) *Event {
	e := r.ring.Next()
	*e = Event{At: at, Kind: k}
	return e
}

// emitIn is emit for an event inside span s (nil outside a
// transaction): it carries the span's identity and the phase it is in.
func (r *Recorder) emitIn(at sim.Time, k Kind, s *Span) *Event {
	e := r.emit(at, k)
	if s != nil {
		e.Coord, e.Span, e.Txn, e.Attempt, e.Phase = uint32(s.Coord), s.ID, s.Txn, uint32(s.Attempt), s.Phase
	}
	return e
}

// Begin records attempt s.Attempt of s beginning in phase s.Phase: the
// transaction's begin event on its first attempt, a retry event on any
// later one.
func (r *Recorder) Begin(at sim.Time, s *Span) {
	if r == nil {
		return
	}
	k := KindTxnRetry
	if s.Attempt == 1 {
		k = KindTxnBegin
	}
	r.emitTxn(at, k, s)
	r.EnterPhase(at, s)
}

// emitTxn emits a lifecycle event of s: identity and label, no phase.
func (r *Recorder) emitTxn(at sim.Time, k Kind, s *Span) *Event {
	e := r.emit(at, k)
	e.Coord, e.Span, e.Txn, e.Attempt, e.Label = uint32(s.Coord), s.ID, s.Txn, uint32(s.Attempt), r.strs.id(s.Label)
	return e
}

// EnterPhase records s entering its phase, s.Phase.
func (r *Recorder) EnterPhase(at sim.Time, s *Span) {
	if r == nil || s == nil {
		return
	}
	r.emitIn(at, KindPhase, s)
}

// Commit ends s as committed.
func (r *Recorder) Commit(at sim.Time, s *Span) {
	if r == nil || s == nil {
		return
	}
	r.emitTxn(at, KindTxnCommit, s)
}

// Abort records a failed attempt of s with its classification. The
// span itself stays open for the retry.
func (r *Recorder) Abort(at sim.Time, s *Span, reason string, falseConflict bool) {
	if r == nil || s == nil {
		return
	}
	e := r.emitTxn(at, KindTxnAbort, s)
	e.Reason, e.False = r.strs.id(reason), falseConflict
}

// RTT records one doorbell batch: the unit of round-trip attribution.
func (r *Recorder) RTT(at sim.Time, s *Span, qp, region, ops, bytes int, lat sim.Duration) {
	if r == nil {
		return
	}
	e := r.emitIn(at, KindRTT, s)
	e.QP, e.Region, e.Ops, e.Bytes, e.Latency = uint32(qp), uint16(region), uint16(ops), uint32(bytes), latency(lat)
}

// latency narrows a charged latency to Event.Latency, saturating.
func latency(d sim.Duration) uint32 {
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// emitCC emits a concurrency-control event of kind k on the given cells.
func (r *Recorder) emitCC(at sim.Time, k Kind, s *Span, table layout.TableID, key layout.Key, mask uint64) {
	e := r.emitIn(at, k, s)
	e.Table, e.Key, e.Mask = table, key, mask
}

// Conflict records a concurrency-control conflict (a lock CAS lost to
// another holder, or a validation check failure) on the given cells.
func (r *Recorder) Conflict(at sim.Time, s *Span, table layout.TableID, key layout.Key, mask uint64) {
	if r == nil {
		return
	}
	r.emitCC(at, KindConflict, s, table, key, mask)
}

// LockAcquire records remote cell locks won on a record.
func (r *Recorder) LockAcquire(at sim.Time, s *Span, table layout.TableID, key layout.Key, mask uint64) {
	if r == nil {
		return
	}
	r.emitCC(at, KindLockAcquire, s, table, key, mask)
}

// LockPiggyback records a local transaction reusing already-held
// remote locks (CREST §5.1).
func (r *Recorder) LockPiggyback(at sim.Time, s *Span, table layout.TableID, key layout.Key, mask uint64) {
	if r == nil {
		return
	}
	r.emitCC(at, KindLockPiggyback, s, table, key, mask)
}

// LockRelease records remote cell locks released at write-back.
func (r *Recorder) LockRelease(at sim.Time, s *Span, table layout.TableID, key layout.Key, mask uint64) {
	if r == nil {
		return
	}
	r.emitCC(at, KindLockRelease, s, table, key, mask)
}

// ENOverflow records a cell's 16-bit epoch number wrapping (the paper's
// §4.2 rollover hazard, normally masked by the ENThreshold fallback).
func (r *Recorder) ENOverflow(at sim.Time, s *Span, table layout.TableID, key layout.Key, cell int) {
	if r == nil {
		return
	}
	r.emitCC(at, KindENOverflow, s, table, key, 1<<uint(cell))
}

// Snapshot is the recorder's state at one instant, the input to every
// exporter. Events may alias the recorder's ring (Ring.View), which
// never writes into it again: a snapshot stays as it was taken while
// the run goes on, and must not be written to.
type Snapshot struct {
	Events  []Event // oldest → newest
	Dropped uint64

	strs []string // what Event.Label and Event.Reason index
}

// Str resolves an Event.Label or Event.Reason.
func (s *Snapshot) Str(id StrID) string {
	if id == 0 {
		return ""
	}
	return s.strs[id]
}

// Snapshot views the ring (oldest to newest) and copies the string
// table. A nil recorder yields an empty snapshot.
//
// On a sharded recorder the snapshot is the deterministic merge of the
// root and every partition child (MergeByTime): each member's string
// codes are rewritten, as the merge writes its events, into one table
// merged by string, and Dropped sums the family's evictions.
func (r *Recorder) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	if !r.fam.Sharded() {
		s.Dropped = r.ring.Dropped()
		s.Events = r.ring.View()
		s.strs = slices.Clone(r.strs.strs)
		return s
	}
	members := r.fam.Members(r)
	streams := make([][]Event, len(members))
	strMaps := make([][]StrID, len(members))
	var strs strTable
	for i, m := range members {
		s.Dropped += m.ring.Dropped()
		streams[i] = m.ring.View()
		strMaps[i] = strs.merge(&m.strs)
	}
	s.Events = MergeByTime(streams, func(e *Event) sim.Time { return e.At }, func(m int, e *Event) {
		strMap := strMaps[m]
		e.Label, e.Reason = strMap[e.Label], strMap[e.Reason]
	})
	s.strs = strs.strs
	return s
}

// merge interns every string of src into t and returns src's codes in
// t's terms (code 0, the empty string, always among them).
func (t *strTable) merge(src *strTable) []StrID {
	m := make([]StrID, max(1, len(src.strs)))
	for i, s := range src.strs {
		m[i] = t.id(s)
	}
	return m
}
