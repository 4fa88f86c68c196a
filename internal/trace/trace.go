// Package trace is the deterministic virtual-time tracing and
// observability subsystem. A Recorder collects typed events — txn
// begin/retry/commit/abort, phase transitions, per-verb RDMA
// issue/complete, lock traffic on CREST local objects, simulator
// scheduling — into a bounded ring buffer keyed by (coordinator, txn,
// span).
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
// On top of the raw stream sit three views (see chrome.go and
// report.go): per-txn span timelines with exact virtual-time phase
// durations and RTT attribution, a hot-key contention profile, and a
// Chrome trace_event JSON export that opens directly in Perfetto or
// chrome://tracing.
package trace

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"crest/internal/layout"
	"crest/internal/rdma"
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

	// RDMA fabric activity.
	KindVerbIssue
	KindVerbComplete
	KindRTT // one per doorbell batch (round-trip attribution)

	// Concurrency-control events on records.
	KindConflict      // a lock CAS lost or a validation check failed
	KindLockAcquire   // remote cell locks acquired
	KindLockPiggyback // a local txn reused already-held remote locks
	KindLockRelease   // remote cell locks released (write-back)
	KindENOverflow    // a cell's 16-bit epoch number wrapped

	// Simulator scheduling.
	KindProcSpawn
	KindProcBlock
	KindProcWake
	KindProcFinish
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
	case KindVerbIssue:
		return "verb-issue"
	case KindVerbComplete:
		return "verb-complete"
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
	case KindProcSpawn:
		return "proc-spawn"
	case KindProcBlock:
		return "proc-block"
	case KindProcWake:
		return "proc-wake"
	case KindProcFinish:
		return "proc-finish"
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
// is used, a round-trip is microseconds. An event's global emission
// number is its position (Snapshot.Seq).
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

	// Latency is the charged latency of KindVerbComplete / KindRTT in
	// nanoseconds, saturating at math.MaxUint32 (4.29 s).
	Latency uint32
	Coord   uint32
	Attempt uint32
	Bytes   uint32 // verb events: payload bytes charged
	QP      uint32 // verb events: queue-pair id
	Table   layout.TableID

	Label  StrID // txn label or proc name
	Reason StrID // KindTxnAbort: abort classification; KindProcBlock: wait-queue label

	Region uint16 // verb events: target region id
	Ops    uint16 // KindRTT: verbs in the batch

	Kind  Kind
	Phase Phase // KindPhase: phase entered; verb events: phase charged
	False bool  // KindTxnAbort: false conflict
	Verb  uint8 // verb events: READ / WRITE / CAS / masked-CAS, by Snapshot.Verb
}

// strTable interns strings to StrIDs. The strings a run meets are few —
// transaction labels, abort reasons — unless ProcEvents records process
// names and wait-queue labels, so the first few are found by scanning
// and the rest through a map built when they appear. A table only
// grows: under ProcEvents it keeps every distinct wait-queue label the
// run produced, not only those of events still in the ring.
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
// the phase; the recorders only read it, and this one keeps its
// conflict site in it.
type Span struct {
	Coord   uint64
	ID      uint64
	Label   string
	Attempt int
	Txn     uint64 // engine-assigned txn id, 0 until known
	Phase   Phase

	// Last conflict site of the current attempt, for attributing an
	// abort to the cells that caused it in the hot-key profile.
	cTable   layout.TableID
	cKey     layout.Key
	cMask    uint64
	cAttempt int
}

// SetTxn records the engine's transaction id once drawn.
func (s *Span) SetTxn(id uint64) {
	if s != nil {
		s.Txn = id
	}
}

// hotKey identifies one cell for the contention profile.
type hotKey struct {
	Table layout.TableID
	Key   layout.Key
	Cell  int
}

// HotCell is one entry of the hot-key contention profile.
type HotCell struct {
	Table     layout.TableID
	Key       layout.Key
	Cell      int
	Conflicts uint64 // lock CASes lost + validation failures touching the cell
	Aborts    uint64 // aborts attributed to the cell
}

// Recorder collects events into a bounded ring buffer. It is owned by
// one simulation environment; the cooperative scheduler serializes all
// emissions, so no locking is needed. The zero Recorder is unusable;
// a nil *Recorder is the disabled state and every method tolerates it.
type Recorder struct {
	ring  Ring[Event]
	strs  strTable // Event.Label and Event.Reason
	verbs strTable // Event.Verb: verb names, in first-use order
	// opVerb caches each rdma.OpKind's Event.Verb code (0 until the
	// kind's first verb), so a verb event builds and looks up no name.
	opVerb [math.MaxUint8 + 1]uint8

	hot map[hotKey]*HotCell

	// Partition-recorder mode (Shard, see Family): a root recorder
	// hands each simulation partition its own child and merges the
	// children deterministically at snapshot time. root points a child
	// back at its parent for the ProcEvents flag.
	fam  Family[Recorder]
	root *Recorder

	// ProcEvents enables simulator scheduling events (spawn / block /
	// wake / finish). They are voluminous under contention, so they are
	// opt-in.
	ProcEvents bool
}

// DefaultCapacity bounds the ring buffer when the caller does not.
const DefaultCapacity = 1 << 18

// NewRecorder returns an enabled recorder holding at most capacity
// events (DefaultCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{ring: NewRing[Event](capacity), hot: map[hotKey]*HotCell{}}
}

// Enabled reports whether the recorder collects events.
func (r *Recorder) Enabled() bool { return r != nil }

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
		return &Recorder{ring: NewRing[Event](r.ring.Cap()), hot: map[hotKey]*HotCell{}, fam: f, root: r}
	})
}

// procEvents resolves the ProcEvents flag: children defer to the root
// so the flag can be toggled after sharding.
func (r *Recorder) procEvents() bool {
	if r.root != nil {
		return r.root.ProcEvents
	}
	return r.ProcEvents
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

// Dropped reports how many events were evicted from the ring (summed
// over the partition children on a sharded recorder).
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.fam.Sum(r, func(m *Recorder) uint64 { return m.ring.Dropped() })
}

// Len reports the number of buffered events (summed over the partition
// children on a sharded recorder).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return int(r.fam.Sum(r, func(m *Recorder) uint64 { return uint64(m.ring.Len()) }))
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
// span itself stays open for the retry. When the attempt recorded a
// conflict, the abort is attributed to that conflict's cells in the
// hot-key profile.
func (r *Recorder) Abort(at sim.Time, s *Span, reason string, falseConflict bool) {
	if r == nil || s == nil {
		return
	}
	e := r.emitTxn(at, KindTxnAbort, s)
	e.Reason, e.False = r.strs.id(reason), falseConflict
	if s.cAttempt == s.Attempt && s.cMask != 0 {
		r.bumpHot(s.cTable, s.cKey, s.cMask, true)
	}
}

// verbID is op's code: its name is interned on the kind's first use, so
// codes follow first use and Snapshot.Verb reads the name back. A
// fabric has four verbs; a recorder asked for more names than a byte
// holds is being misused.
func (r *Recorder) verbID(op rdma.OpKind) uint8 {
	if id := r.opVerb[op]; id != 0 {
		return id
	}
	id := r.verbs.id(op.String())
	if id > math.MaxUint8 {
		panic("trace: more than 255 distinct verb names")
	}
	r.opVerb[op] = uint8(id)
	return uint8(id)
}

// VerbIssue records one verb posted to the fabric.
func (r *Recorder) VerbIssue(at sim.Time, s *Span, op rdma.OpKind, qp, region, bytes int) {
	if r == nil {
		return
	}
	e := r.emitIn(at, KindVerbIssue, s)
	e.Verb, e.QP, e.Region, e.Bytes = r.verbID(op), uint32(qp), uint16(region), uint32(bytes)
}

// VerbComplete records one verb's completion with its charged latency
// (the whole batch's round-trip; doorbell batching amortizes it).
func (r *Recorder) VerbComplete(at sim.Time, s *Span, op rdma.OpKind, qp, region, bytes int, lat sim.Duration) {
	if r == nil {
		return
	}
	e := r.emitIn(at, KindVerbComplete, s)
	e.Verb, e.QP, e.Region, e.Bytes, e.Latency = r.verbID(op), uint32(qp), uint16(region), uint32(bytes), latency(lat)
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
// another holder, or a validation check failure) on the given cells,
// feeding the hot-key profile.
func (r *Recorder) Conflict(at sim.Time, s *Span, table layout.TableID, key layout.Key, mask uint64) {
	if r == nil {
		return
	}
	r.emitCC(at, KindConflict, s, table, key, mask)
	r.bumpHot(table, key, mask, false)
	if s != nil {
		s.cTable, s.cKey, s.cMask, s.cAttempt = table, key, mask, s.Attempt
	}
}

func (r *Recorder) bumpHot(table layout.TableID, key layout.Key, mask uint64, abort bool) {
	for m := mask; m != 0; m &= m - 1 {
		cell := bits.TrailingZeros64(m)
		hk := hotKey{table, key, cell}
		hc := r.hot[hk]
		if hc == nil {
			hc = &HotCell{Table: table, Key: key, Cell: cell}
			r.hot[hk] = hc
		}
		if abort {
			hc.Aborts++
		} else {
			hc.Conflicts++
		}
	}
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

// The sim.Observer implementation: simulator scheduling events. Only
// recorded when ProcEvents is set.

// emitProc emits a scheduling event of the process called name.
func (r *Recorder) emitProc(at sim.Time, k Kind, name string) *Event {
	e := r.emit(at, k)
	e.Label = r.strs.id(name)
	return e
}

// ProcSpawn implements sim.Observer.
func (r *Recorder) ProcSpawn(name string, at sim.Time) {
	if r == nil || !r.procEvents() {
		return
	}
	r.emitProc(at, KindProcSpawn, name)
}

// ProcBlock implements sim.Observer: a process parked on a wait queue.
// The queue's label is built only here, for an event that is kept.
func (r *Recorder) ProcBlock(name string, queue fmt.Stringer, at sim.Time) {
	if r == nil || !r.procEvents() {
		return
	}
	r.emitProc(at, KindProcBlock, name).Reason = r.strs.id(queue.String())
}

// ProcWake implements sim.Observer.
func (r *Recorder) ProcWake(name string, at sim.Time) {
	if r == nil || !r.procEvents() {
		return
	}
	r.emitProc(at, KindProcWake, name)
}

// ProcFinish implements sim.Observer.
func (r *Recorder) ProcFinish(name string, at sim.Time) {
	if r == nil || !r.procEvents() {
		return
	}
	r.emitProc(at, KindProcFinish, name)
}

// Snapshot is the recorder's state at one instant, the input to every
// exporter. Events may alias the recorder's ring (Ring.View), which
// never writes into it again: a snapshot stays as it was taken while
// the run goes on, and must not be written to.
type Snapshot struct {
	Events  []Event // oldest → newest
	Dropped uint64
	Hot     []HotCell // sorted: most conflicted first

	strs, verbs []string // what Event.Label/Reason and Event.Verb index
}

// Seq is the global emission number of Events[i]: it counts from 1
// and survives ring eviction.
func (s *Snapshot) Seq(i int) uint64 { return s.Dropped + uint64(i) + 1 }

// Str resolves an Event.Label or Event.Reason.
func (s *Snapshot) Str(id StrID) string {
	if id == 0 {
		return ""
	}
	return s.strs[id]
}

// Verb names e's verb ("" for an event that is not a verb event).
func (s *Snapshot) Verb(e *Event) string {
	if e.Verb == 0 {
		return ""
	}
	return s.verbs[e.Verb]
}

// Snapshot views the ring (oldest to newest) and copies the string
// tables and the hot-key profile. A nil recorder yields an empty
// snapshot.
//
// On a sharded recorder the snapshot is the deterministic merge of the
// root and every partition child (MergeByTime): each member's string
// codes are rewritten, as the merge writes its events, into one table
// merged by string; hot-cell profiles sum per cell, and Dropped sums
// the family's evictions.
func (r *Recorder) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	s.Dropped = r.Dropped()
	if !r.fam.Sharded() {
		s.Events = r.ring.View()
		s.strs, s.verbs = slices.Clone(r.strs.strs), slices.Clone(r.verbs.strs)
		s.Hot = sortedHot(r.hot)
		return s
	}
	members := r.fam.Members(r)
	streams := make([][]Event, len(members))
	strMaps, verbMaps := make([][]StrID, len(members)), make([][]StrID, len(members))
	merged := make(map[hotKey]*HotCell, len(r.hot))
	var strs, verbs strTable
	for i, m := range members {
		streams[i] = m.ring.View()
		strMaps[i], verbMaps[i] = strs.merge(&m.strs), verbs.merge(&m.verbs)
		foldHot(merged, m.hot)
	}
	s.Events = MergeByTime(streams, func(e *Event) (sim.Time, uint64) { return e.At, 0 }, func(m int, e *Event) {
		strMap := strMaps[m]
		e.Label, e.Reason, e.Verb = strMap[e.Label], strMap[e.Reason], uint8(verbMaps[m][e.Verb])
	})
	s.strs, s.verbs = strs.strs, verbs.strs
	s.Hot = sortedHot(merged)
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

// foldHot sums src's per-cell counters into dst.
func foldHot(dst, src map[hotKey]*HotCell) {
	for hk, hc := range src {
		d := dst[hk]
		if d == nil {
			cp := *hc
			dst[hk] = &cp
			continue
		}
		d.Conflicts += hc.Conflicts
		d.Aborts += hc.Aborts
	}
}

// sortedHot flattens a hot-cell map into the canonical profile order:
// most contended first, ties by (table, key, cell).
func sortedHot(hot map[hotKey]*HotCell) []HotCell {
	out := make([]HotCell, 0, len(hot))
	for _, hc := range hot {
		out = append(out, *hc)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Conflicts+a.Aborts != b.Conflicts+b.Aborts {
			return a.Conflicts+a.Aborts > b.Conflicts+b.Aborts
		}
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Cell < b.Cell
	})
	return out
}

// HotKeys returns the top-k entries of the contention profile.
func (s *Snapshot) HotKeys(k int) []HotCell {
	if k < 0 || k > len(s.Hot) {
		k = len(s.Hot)
	}
	return s.Hot[:k]
}
