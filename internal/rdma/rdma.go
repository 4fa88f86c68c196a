// Package rdma simulates a one-sided RDMA fabric between compute
// nodes and memory nodes.
//
// The real system (and the paper's testbed) uses 100 Gbps InfiniBand
// NICs and the vendor masked-compare-and-swap experimental verb. This
// package substitutes a latency/bandwidth model on top of the
// deterministic simulator in internal/sim while preserving exactly the
// properties the protocols rely on:
//
//   - one-sided verbs: READ, WRITE, CAS and masked-CAS execute against
//     a memory node's registered region without remote CPU involvement;
//   - atomicity: a verb (and a whole doorbell batch) applies at one
//     instant of virtual time, so CAS semantics are exact;
//   - delivery order: the verbs of one batch apply in posted order,
//     which CREST's commit sequence (§4.2 of the paper) depends on;
//   - doorbell batching: a batch of verbs to one node costs a single
//     round-trip.
//
// There is one post path. A post is a list of batches, one per queue
// pair (Post and the single-verb wrappers send a one-element list held
// in the post's own descriptor), and (*pending).post is the one place a
// round-trip is issued, applied and completed: it draws one latency per
// batch and charges the slowest, carves every batch's result slots and
// READ arena from the descriptor's scratch, probes the observers,
// schedules the apply for the virtual midpoint, parks the issuing
// process exactly once until the completion instant, probes again and
// folds the batches' errors. Its only branch is whether any batch
// targets a region owned by another partition of a sim.World, and that
// decides only how the apply is scheduled and when the counters land —
// see post.
//
// Every verb and round-trip is counted, which is how the Table 2
// experiment (RDMA operations per transaction) is regenerated.
package rdma

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"

	"crest/internal/sim"
)

// Params configures the latency model of a fabric.
type Params struct {
	// RTT is the base round-trip time of a verb or batch. The paper
	// quotes ~2µs for RDMA communication latency.
	RTT sim.Duration
	// GbpsBandwidth is the link bandwidth used to charge payload
	// serialization time on top of RTT.
	GbpsBandwidth float64
	// PerOp is additional NIC processing time charged per verb in a
	// batch (doorbell batching amortizes the round-trip, not the
	// per-WQE work).
	PerOp sim.Duration
	// JitterPct, if positive, widens each round-trip by a uniformly
	// random factor in the half-open interval [0, JitterPct/100): the
	// factor is Rand.Float64()*JitterPct/100, so the lower bound is
	// attainable and the upper bound is not. Jitter keeps coordinators
	// from running in lockstep; it is drawn from the environment's
	// seeded source, so runs stay reproducible.
	JitterPct float64
}

// DefaultParams matches the paper's testbed figures: 2µs RTT on a
// 100 Gbps fabric.
func DefaultParams() Params {
	return Params{
		RTT:           2 * sim.Microsecond,
		GbpsBandwidth: 100,
		PerOp:         60 * sim.Nanosecond,
		JitterPct:     10,
	}
}

// OpKind identifies a one-sided verb.
type OpKind uint8

// The supported one-sided verbs.
const (
	OpRead OpKind = iota
	OpWrite
	OpCAS
	OpMaskedCAS
)

// String returns the verb's conventional name.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	case OpCAS:
		return "CAS"
	case OpMaskedCAS:
		return "masked-CAS"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one verb in a doorbell batch.
type Op struct {
	Kind OpKind
	Off  uint64 // offset within the target region
	Len  int    // READ: bytes to fetch
	Data []byte // WRITE: payload

	// CAS / masked-CAS operands. The atomics operate on the 8-byte
	// little-endian word at Off. For masked-CAS only the bits set in
	// Mask participate in both the comparison and the swap, matching
	// the ConnectX extended-atomics verb the paper uses for per-cell
	// lock bits.
	Compare uint64
	Swap    uint64
	Mask    uint64
}

// Result is the completion of one Op.
type Result struct {
	// Data holds a READ's fetched bytes. It aliases the post's reused
	// scratch arena: it is valid until the issuing process posts again
	// or parks, so parse or copy it immediately.
	Data []byte
	Old  uint64 // CAS/masked-CAS: the prior word value
	OK   bool   // CAS/masked-CAS: whether the swap applied
}

// Stats counts fabric activity. Engines snapshot and diff it to report
// per-transaction and per-phase verb counts.
type Stats struct {
	Reads       uint64
	Writes      uint64
	CASes       uint64
	MaskedCASes uint64
	RTTs        uint64
	BytesRead   uint64
	BytesWrite  uint64
}

// Total returns the total number of verbs issued.
func (s Stats) Total() uint64 { return s.Reads + s.Writes + s.CASes + s.MaskedCASes }

// Sub returns s minus t, for diffing snapshots.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Reads:       s.Reads - t.Reads,
		Writes:      s.Writes - t.Writes,
		CASes:       s.CASes - t.CASes,
		MaskedCASes: s.MaskedCASes - t.MaskedCASes,
		RTTs:        s.RTTs - t.RTTs,
		BytesRead:   s.BytesRead - t.BytesRead,
		BytesWrite:  s.BytesWrite - t.BytesWrite,
	}
}

// Add returns s plus t.
func (s Stats) Add(t Stats) Stats {
	return Stats{
		Reads:       s.Reads + t.Reads,
		Writes:      s.Writes + t.Writes,
		CASes:       s.CASes + t.CASes,
		MaskedCASes: s.MaskedCASes + t.MaskedCASes,
		RTTs:        s.RTTs + t.RTTs,
		BytesRead:   s.BytesRead + t.BytesRead,
		BytesWrite:  s.BytesWrite + t.BytesWrite,
	}
}

// Fabric is the interconnect: it owns the latency model, the registered
// memory regions and the verb counters.
//
// On a partitioned simulation (sim.World) the fabric is the only seam
// crossing partitions: regions belong to the partition of their memory
// node's shard group, and a verb batch posted at a region owned by
// another partition applies there via a cross-partition deferred call
// at the round-trip midpoint, while the issuing process resumes in its
// own partition at the completion instant. Every per-post mutable
// resource (verb counters, descriptor pools) is striped into per-
// partition lanes so partitions share nothing on the hot path; a
// sequential fabric is the one-lane case, where no region is ever
// owned by another partition.
type Fabric struct {
	env     *sim.Env
	params  Params
	regions []*Region
	lanes   []*lane
	nextQP  int64 // atomic: queue pairs may be connected from any partition
}

// lane is one partition's slice of the fabric: its scheduler, verb
// counters, observer and recycled descriptors. Only code running in the
// lane's partition touches it, so an attached observer stays lock-free
// under the parallel window executor.
type lane struct {
	env   *sim.Env
	stats Stats
	cross Stats      // verbs this lane posted that applied in other partitions
	obs   Observer   // nil when unobserved: the one check a post pays
	free  []*pending // recycled in-flight descriptors
}

// Observer is told of every post a lane's processes make: Posted as the
// post is issued, Completed once the issuing process is awake again,
// lat later — a multi-batch post costs its slowest batch. It consumes
// no virtual time. engine.Observers implements it; the fabric cannot
// import the engine.
type Observer interface {
	Posted(p *sim.Proc, batches []Batch)
	Completed(p *sim.Proc, batches []Batch, lat sim.Duration)
}

// SetObserver attaches obs to partition part's lane (nil detaches it).
// On a partitioned fabric each lane reports to its own partition's
// observer, so emission stays partition-local and lock-free at any
// worker count.
func (f *Fabric) SetObserver(part int, obs Observer) { f.lanes[part].obs = obs }

// NewFabric creates a fabric on env with the given latency parameters.
// When env belongs to a sim.World, the fabric stripes itself into one
// lane per partition and supports cross-partition posts; the world's
// lookahead must not exceed params.Lookahead().
func NewFabric(env *sim.Env, params Params) *Fabric {
	if params.RTT <= 0 {
		panic("rdma: Params.RTT must be positive")
	}
	if params.GbpsBandwidth <= 0 {
		panic("rdma: Params.GbpsBandwidth must be positive")
	}
	f := &Fabric{env: env, params: params}
	if w := env.World(); w != nil && w.Parts() > 1 {
		if w.Lookahead() > params.Lookahead() {
			panic(fmt.Sprintf("rdma: world lookahead %v exceeds fabric one-way minimum %v",
				w.Lookahead(), params.Lookahead()))
		}
		f.lanes = make([]*lane, w.Parts())
		for i := range f.lanes {
			f.lanes[i] = &lane{env: w.Env(i)}
		}
	} else {
		f.lanes = []*lane{{env: env}}
	}
	return f
}

// Lookahead is the minimum one-way latency of any verb: the base RTT's
// midpoint. Payload, per-op cost and jitter are strictly additive, so
// no batch can apply at a memory node earlier than this after it was
// posted — which makes it a safe conservative lookahead for
// partitioning the simulation along the fabric.
func (p Params) Lookahead() sim.Duration { return p.RTT / 2 }

// Stats returns a snapshot of the fabric counters, summed over lanes.
func (f *Fabric) Stats() Stats {
	s := f.lanes[0].stats
	for _, l := range f.lanes[1:] {
		s = s.Add(l.stats)
	}
	return s
}

// CrossLaneStats returns the verbs partition part posted that applied
// in other partitions (already counted in Stats): the traffic that
// crossed the fabric's partition seam. Schedule-derived, so it is
// identical at any worker count.
func (f *Fabric) CrossLaneStats(part int) Stats { return f.lanes[part].cross }

// Regions returns the registered regions, in registration (id) order.
func (f *Fabric) Regions() []*Region { return f.regions }

// Lanes returns the number of partition lanes.
func (f *Fabric) Lanes() int { return len(f.lanes) }

// laneOf returns the lane of the partition that p runs in.
func (f *Fabric) laneOf(p *sim.Proc) *lane { return f.lanes[p.Env().Part()] }

// Region is a registered memory region on a memory node, addressed by
// byte offset from compute nodes.
type Region struct {
	fabric *Fabric
	id     int
	part   int // owning partition: verbs against the region apply there
	name   string
	buf    []byte
	mem    *mapping // buf's mapping outside the Go heap; nil when buf was made
	failed bool
	closed bool
}

// minMapped is the size from which a region's bytes are mapped outside
// the Go heap. The memory pool is bulk DRAM that is not the compute
// side's memory: on the heap its pointer-free bytes would set the
// collector's goal, so the garbage a run makes would be collected only
// once it equals the simulated DRAM. Smaller regions stay on the heap —
// tests build them by the thousand and a map/unmap pair costs more than
// the bytes do.
const minMapped = 1 << 20

// mapping owns a region's bytes outside the Go heap. It points at
// nothing on the heap, so — unlike its Region, which sits in a cycle
// with the Fabric — it can carry the finalizer that unmaps a region
// nobody closed (runtime.AddCleanup needs go 1.24; go.mod says 1.22).
type mapping struct{ buf []byte }

// mapped counts the bytes of live mappings, process-wide.
var mapped atomic.Int64

// MappedBytes reports the region bytes currently mapped outside the Go
// heap by every fabric of the process. Tests and diagnostics only: it
// is how a run that forgot to Close shows.
func MappedBytes() int64 { return mapped.Load() }

// newMapping maps size zero bytes, or returns nil where it cannot.
func newMapping(size int) *mapping {
	buf := mapBytes(size)
	if buf == nil {
		return nil
	}
	m := &mapping{buf: buf}
	mapped.Add(int64(len(buf)))
	runtime.SetFinalizer(m, (*mapping).unmap)
	return m
}

// unmap gives the bytes back; every slice into them is dead from here.
// It runs once: as the finalizer, or from Close, which drops the handle.
func (m *mapping) unmap() {
	mapped.Add(-int64(len(m.buf)))
	unmapBytes(m.buf)
}

// Register allocates and registers a memory region of size bytes,
// owned by partition 0.
func (f *Fabric) Register(name string, size int) *Region {
	return f.RegisterAt(name, size, 0)
}

// RegisterAt allocates and registers a memory region owned by
// partition part: verbs posted from other partitions apply at the
// region through the cross-partition seam. On a single-partition
// fabric part must be 0. The region reads as zeroes. From minMapped
// bytes up it lives outside the Go heap until Close (or, unclosed,
// until the collector finds the region unreachable).
func (f *Fabric) RegisterAt(name string, size, part int) *Region {
	if part < 0 || part >= len(f.lanes) {
		panic(fmt.Sprintf("rdma: RegisterAt partition %d of %d", part, len(f.lanes)))
	}
	r := &Region{fabric: f, id: len(f.regions), part: part, name: name}
	if size >= minMapped {
		r.mem = newMapping(size)
	}
	if r.mem != nil {
		r.buf = r.mem.buf
	} else {
		r.buf = make([]byte, size)
	}
	f.regions = append(f.regions, r)
	return r
}

// Close ends the region: its bytes go back to the system (a mapped
// region's at once) and every verb posted from here on fails as one
// against a crashed node does — Recover does not bring a closed region
// back. Slices obtained from Bytes are dead. Closing twice is harmless.
// Call it only once the simulation has stopped running.
func (r *Region) Close() {
	r.closed = true
	r.buf = nil
	if r.mem != nil {
		runtime.SetFinalizer(r.mem, nil)
		r.mem.unmap()
		r.mem = nil
	}
}

// Populate faults in the pages under [off, off+n) ahead of a writer,
// on a thread other than the writer's: the zero-fill the writer's first
// store into each page would trap for is done here, in one call per
// run. No byte changes, written or not. It does nothing where there is
// no such call (off Linux, or when the kernel refuses), on a region on
// the Go heap or closed, and for an empty or out-of-range span. It may
// run beside stores into the same bytes, but not beside Close.
func (r *Region) Populate(off uint64, n int) {
	if r.mem == nil || n <= 0 || off > uint64(len(r.buf)) || uint64(n) > uint64(len(r.buf))-off {
		return
	}
	populateBytes(r.buf, off, n)
}

// ID returns the region's registration index.
func (r *Region) ID() int { return r.id }

// Name returns the region's label.
func (r *Region) Name() string { return r.name }

// Size returns the region's length in bytes (none once closed).
func (r *Region) Size() int { return len(r.buf) }

// Fail marks the region's memory node as crashed: subsequent verbs
// against it return an error. Used by recovery tests.
func (r *Region) Fail() { r.failed = true }

// Recover clears the crashed state.
func (r *Region) Recover() { r.failed = false }

// Failed reports whether the region's node is unreachable: marked
// crashed, or closed.
func (r *Region) Failed() bool { return r.failed || r.closed }

// Bytes exposes the raw region for loading and for recovery tooling.
// Protocol code must not touch it; it bypasses the fabric. The slice
// aliases the region and ends with it: it is nil after Close, and a
// slice taken earlier must not be touched after Close or once the
// region (with its fabric) is unreachable — a large region's bytes are
// a mapping the region owns, not heap the slice would keep alive.
func (r *Region) Bytes() []byte { return r.buf }

// QP is a queue pair from one coordinator to one memory region.
// Distinct simulated processes may share a QP (the public API
// round-robins transactions over coordinators), but each in-flight
// post owns its own descriptor, so sharing is safe as long as every
// caller consumes its results before posting again or parking.
type QP struct {
	fabric *Fabric
	region *Region
	id     int
}

// Connect creates a queue pair targeting region r. The connection
// counter is atomic because engines may connect lazily from any
// partition; the id feeds only trace output, never the simulation
// schedule. (Engines connect eagerly at load time, before partitions
// run concurrently, so traced ids are stable in practice.)
func (f *Fabric) Connect(r *Region) *QP {
	if r.fabric != f {
		panic("rdma: Connect across fabrics")
	}
	return &QP{fabric: f, region: r, id: int(atomic.AddInt64(&f.nextQP, 1))}
}

// Region returns the queue pair's target region.
func (qp *QP) Region() *Region { return qp.region }

// ID returns the queue pair's connection index (1-based, per fabric).
func (qp *QP) ID() int { return qp.id }

// latency returns the virtual time one batch costs, drawing jitter
// from rng — the issuing partition's stream, so parallel partitions
// never contend on (or nondeterministically interleave) one source.
func (f *Fabric) latency(rng *rand.Rand, payload int, ops int) sim.Duration {
	d := f.params.RTT + sim.Duration(ops)*f.params.PerOp
	if payload > 0 {
		ns := float64(payload*8) / f.params.GbpsBandwidth // bits / (Gbps) = ns
		d += sim.Duration(ns)
	}
	if f.params.JitterPct > 0 {
		d += sim.Duration(rng.Float64() * f.params.JitterPct / 100 * float64(d))
	}
	return d
}

// Bytes returns the payload bytes the verb is charged for.
func (op *Op) Bytes() int {
	switch op.Kind {
	case OpRead:
		return op.Len
	case OpWrite:
		return len(op.Data)
	}
	return 8
}

// Batch pairs a queue pair with the ops to post on it.
type Batch struct {
	QP  *QP
	Ops []Op
}

// Payload returns the payload bytes the batch's verbs carry.
func (b Batch) Payload() int {
	n := 0
	for i := range b.Ops {
		switch b.Ops[i].Kind {
		case OpRead:
			n += b.Ops[i].Len
		case OpWrite:
			n += len(b.Ops[i].Data)
		case OpCAS, OpMaskedCAS:
			n += 8
		}
	}
	return n
}

// pending is one in-flight post: the batches, the scratch that backs
// their results, and what the deferred calls need to apply the verbs
// and resume the issuing process. The descriptor is owned exclusively
// by one post from issue until completion, so results stay intact even
// when several processes share a queue pair; they are reused only
// after the issuer has had a chance to consume them (it must do so
// before posting again or parking). Descriptors are recycled through
// their lane's freelist — the cooperative scheduler runs one process of
// a partition at a time, so it needs no locking — and the deferred
// calls are bound once, so a post allocates no closure.
type pending struct {
	f        *Fabric
	lane     *lane // issuing partition's lane (owns the descriptor)
	proc     *sim.Proc
	batches  []Batch // the post: the caller's list, or one[:]
	resumeAt sim.Time
	fire     func() // pre-bound (*pending).run: a local post's midpoint
	wake     func() // pre-bound (*pending).resume: a cross post's completion

	one [1]Batch // a single-batch post's list (Post, the verb wrappers)
	op1 [1]Op    // a verb wrapper's op

	// Per-batch outcome, cut from the reused scratch below by carve:
	// out[i] is batch i's result slots (where the apply writes and what
	// the caller gets back), slots[i] its READ arena and its error.
	out    [][]Result
	slots  []slot
	resBuf []Result
	arena  []byte

	// A cross post's apply, one sub per target partition; subs[nsub:]
	// are spares kept from earlier posts.
	subs []*applySub
	nsub int
}

type slot struct {
	arena []byte
	err   error
}

// applySub is one target partition's share of a cross post: that
// partition's scheduler runs it at the round-trip midpoint. The verbs
// it applies are counted here and folded into the issuing lane at the
// completion instant — one window later, after the barrier — so no
// counter is ever touched by two partitions at once.
type applySub struct {
	d     *pending
	part  int
	stats Stats
	fire  func() // pre-bound (*applySub).run
}

func (s *applySub) run() { s.d.apply(s.part, &s.stats) }

func (l *lane) getPending(f *Fabric) *pending {
	if n := len(l.free); n > 0 {
		d := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return d
	}
	d := &pending{f: f, lane: l}
	d.fire = d.run
	d.wake = d.resume
	return d
}

func (l *lane) putPending(d *pending) {
	// The scratch and the subs are kept for reuse.
	d.proc, d.batches, d.one[0], d.nsub = nil, nil, Batch{}, 0
	l.free = append(l.free, d)
}

// subFor returns the post's sub for target partition part, and whether
// this call added it (from the spares, or new).
func (d *pending) subFor(part int) (*applySub, bool) {
	for _, s := range d.subs[:d.nsub] {
		if s.part == part {
			return s, false
		}
	}
	if d.nsub == len(d.subs) {
		s := &applySub{d: d}
		s.fire = s.run
		d.subs = append(d.subs, s)
	}
	s := d.subs[d.nsub]
	d.nsub++
	s.part, s.stats = part, Stats{}
	return s, true
}

// readBytes totals the payload bytes the batch's READs occupy in the
// descriptor arena.
func readBytes(ops []Op) int {
	n := 0
	for i := range ops {
		if ops[i].Kind == OpRead && ops[i].Len > 0 {
			n += ops[i].Len
		}
	}
	return n
}

// carve sizes the descriptor scratch for the whole post — first, so no
// later grow moves a slice already cut — and cuts every batch's result
// slots and READ arena from it. Batches therefore never share a byte,
// whichever partition applies them.
func (d *pending) carve() {
	n, nops, nbytes := len(d.batches), 0, 0
	for _, b := range d.batches {
		nops += len(b.Ops)
		nbytes += readBytes(b.Ops)
	}
	if cap(d.out) < n {
		d.out, d.slots = make([][]Result, n), make([]slot, n)
	}
	if cap(d.resBuf) < nops {
		d.resBuf = make([]Result, nops)
	}
	if cap(d.arena) < nbytes {
		d.arena = make([]byte, nbytes)
	}
	d.out, d.slots = d.out[:n], d.slots[:n]
	res, arena := d.resBuf[:nops], d.arena[:nbytes]
	for i, b := range d.batches {
		d.out[i], res = res[:len(b.Ops)], res[len(b.Ops):]
		nb := readBytes(b.Ops)
		d.slots[i], arena = slot{arena: arena[:nb]}, arena[nb:]
	}
}

// apply runs in partition part at the round-trip midpoint: it applies,
// in batch order, the batches whose regions that partition owns, each
// atomically, and counts their verbs into st — a location only that
// partition touches until the post completes.
func (d *pending) apply(part int, st *Stats) {
	for i, b := range d.batches {
		if b.QP.region.part != part {
			continue
		}
		d.slots[i].err = applyOps(b.QP.region, b.Ops, d.out[i], d.slots[i].arena, st)
		st.RTTs++
	}
}

// run is a local post's midpoint: every batch applies here, into the
// issuing lane's counters, and the issuer's resume is scheduled for the
// completion instant. Scheduling it here — not at post time — consumes
// a sequence number at the midpoint, exactly when a process sleeping
// out the two halves of the round-trip would, so ties against other
// processes break as they would for one.
func (d *pending) run() {
	d.apply(d.lane.env.Part(), &d.lane.stats)
	d.resume()
}

// resume schedules the issuer's wake-up for the completion instant. A
// cross post runs it as a deferred call at that instant, scheduled at
// post time in the issuing partition, so no target partition ever
// touches this scheduler.
func (d *pending) resume() {
	d.lane.env.Resume(d.proc, d.resumeAt)
}

// post runs the round-trip of d.batches for process p and returns one
// result list per batch. All verbs land on their memory nodes halfway
// through the round-trip (so other coordinators can interleave before
// and after the apply instant), every batch applies in posted order at
// that one instant, and p parks exactly once, until the slowest batch's
// completion instant. A failed batch leaves its list nil; the error is
// the first in batch order.
//
// The one branch is whether any batch targets a region owned by another
// partition. If none does, a deferred call at the midpoint applies the
// batches into the lane's counters and schedules the wake-up (run). If
// one does, nothing here may touch another partition's state directly:
// each target partition — the issuer's own included — gets its share as
// an applySub through the mailbox seam (sim.Env.Send), in order of
// first appearance, the wake-up is scheduled at post time, and the
// subs' counters are folded into the lane once p is awake again (the
// midpoint lies at least one window earlier, so the barrier ordered
// those writes).
//
// Observers are probed from the issuing partition, into the issuing
// lane's shard, so emission stays lock-free at any worker count.
func (d *pending) post(p *sim.Proc) ([][]Result, error) {
	f, lane := d.f, d.lane
	part := lane.env.Part()
	var lat sim.Duration
	cross := false
	for _, b := range d.batches {
		if l := f.latency(lane.env.Rand(), b.Payload(), len(b.Ops)); l > lat {
			lat = l
		}
		cross = cross || b.QP.region.part != part
	}
	d.carve()
	if lane.obs != nil {
		lane.obs.Posted(p, d.batches)
	}
	d.proc = p
	now := p.Now()
	mid := now.Add(lat / 2)
	d.resumeAt = now.Add(lat)
	if !cross {
		lane.env.CallAt(mid, d.fire)
	} else {
		for _, b := range d.batches {
			if sub, added := d.subFor(b.QP.region.part); added {
				lane.env.Send(f.lanes[sub.part].env, mid, sub.fire)
			}
		}
		lane.env.CallAt(d.resumeAt, d.wake)
	}
	p.Suspend()
	if lane.obs != nil {
		lane.obs.Completed(p, d.batches, lat)
	}
	for _, sub := range d.subs[:d.nsub] {
		lane.stats = lane.stats.Add(sub.stats)
		if sub.part != part {
			lane.cross = lane.cross.Add(sub.stats)
		}
	}
	var err error
	for i := range d.slots {
		if e := d.slots[i].err; e != nil {
			if err == nil {
				err = e
			}
			d.out[i] = nil
		}
	}
	out := d.out
	lane.putPending(d)
	return out, err
}

// oneBatch makes d the post of a single batch, its one-element list
// held in the descriptor itself. It is a setter the shims chain into
// post, not a wrapper around it: a wrapper's frame between the park and
// the caller cost BenchmarkFabricCASBatch ~15 ns per post (returns
// mispredict after the coroutine switch).
func (d *pending) oneBatch(qp *QP, ops []Op) *pending {
	d.one[0] = Batch{QP: qp, Ops: ops}
	d.batches = d.one[:]
	return d
}

// Post issues a doorbell batch: all ops execute against the target
// region in order, atomically at one instant of virtual time, and the
// whole batch costs one round-trip. It returns one Result per op; see
// Result.Data for the lifetime of READ payloads.
func (qp *QP) Post(p *sim.Proc, ops []Op) ([]Result, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	out, err := qp.fabric.laneOf(p).getPending(qp.fabric).oneBatch(qp, ops).post(p)
	return out[0], err
}

// PostMulti issues one batch per queue pair concurrently (as a real
// NIC would with doorbells to several QPs) and waits for all of them:
// the verbs of every batch apply in order at the same instant and the
// caller is charged the slowest batch's round-trip, not the sum. This
// is how synchronous (f+1)-replication writes all replicas in one
// round-trip of latency.
//
// The returned slice (and any READ payloads inside it) is scratch
// reused by a later post: consume it before the issuing process posts
// again or parks.
func PostMulti(p *sim.Proc, batches []Batch) ([][]Result, error) {
	if len(batches) == 0 {
		return nil, nil
	}
	f := batches[0].QP.fabric
	for _, b := range batches[1:] {
		if b.QP.fabric != f {
			panic("rdma: PostMulti across fabrics")
		}
	}
	d := f.laneOf(p).getPending(f)
	d.batches = batches
	return d.post(p)
}

// applyOps executes ops against region r at one instant of virtual
// time (it runs inside a midpoint call, without yielding, so the batch
// is atomic), writing completions into out and READ payloads into
// arena, front to back. st receives the verb counters as ops apply.
func applyOps(r *Region, ops []Op, out []Result, arena []byte, st *Stats) error {
	if r.Failed() {
		return fmt.Errorf("rdma: region %q (node %d) unreachable", r.name, r.id)
	}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpRead:
			if err := r.check(op.Off, op.Len); err != nil {
				return err
			}
			data := arena[:op.Len:op.Len]
			arena = arena[op.Len:]
			copy(data, r.buf[op.Off:])
			out[i] = Result{Data: data}
			st.Reads++
			st.BytesRead += uint64(op.Len)
		case OpWrite:
			if err := r.check(op.Off, len(op.Data)); err != nil {
				return err
			}
			copy(r.buf[op.Off:], op.Data)
			out[i] = Result{}
			st.Writes++
			st.BytesWrite += uint64(len(op.Data))
		case OpCAS:
			if err := r.checkAtomic(op.Off); err != nil {
				return err
			}
			cur := binary.LittleEndian.Uint64(r.buf[op.Off:])
			ok := cur == op.Compare
			if ok {
				binary.LittleEndian.PutUint64(r.buf[op.Off:], op.Swap)
			}
			out[i] = Result{Old: cur, OK: ok}
			st.CASes++
		case OpMaskedCAS:
			if err := r.checkAtomic(op.Off); err != nil {
				return err
			}
			cur := binary.LittleEndian.Uint64(r.buf[op.Off:])
			ok := cur&op.Mask == op.Compare&op.Mask
			if ok {
				next := cur&^op.Mask | op.Swap&op.Mask
				binary.LittleEndian.PutUint64(r.buf[op.Off:], next)
			}
			out[i] = Result{Old: cur, OK: ok}
			st.MaskedCASes++
		default:
			return fmt.Errorf("rdma: unknown op kind %d", op.Kind)
		}
	}
	return nil
}

func (r *Region) check(off uint64, n int) error {
	if n < 0 || off > uint64(len(r.buf)) || uint64(n) > uint64(len(r.buf))-off {
		return fmt.Errorf("rdma: access [%d,%d) outside region %q of %d bytes",
			off, off+uint64(n), r.name, len(r.buf))
	}
	return nil
}

func (r *Region) checkAtomic(off uint64) error {
	if off%8 != 0 {
		return fmt.Errorf("rdma: atomic at unaligned offset %d", off)
	}
	return r.check(off, 8)
}

// post1 posts op alone, held in the post's own descriptor, so the
// single-verb wrappers allocate nothing.
func (qp *QP) post1(p *sim.Proc, op Op) (Result, error) {
	d := qp.fabric.laneOf(p).getPending(qp.fabric)
	d.op1[0] = op
	out, err := d.oneBatch(qp, d.op1[:]).post(p)
	if err != nil {
		return Result{}, err
	}
	return out[0][0], nil
}

// Read fetches n bytes at off in a single round-trip. The returned
// bytes follow Result.Data's lifetime rules.
func (qp *QP) Read(p *sim.Proc, off uint64, n int) ([]byte, error) {
	r, err := qp.post1(p, Op{Kind: OpRead, Off: off, Len: n})
	return r.Data, err
}

// Write stores data at off in a single round-trip.
func (qp *QP) Write(p *sim.Proc, off uint64, data []byte) error {
	_, err := qp.post1(p, Op{Kind: OpWrite, Off: off, Data: data})
	return err
}

// CAS compares-and-swaps the 8-byte word at off.
func (qp *QP) CAS(p *sim.Proc, off, compare, swap uint64) (old uint64, ok bool, err error) {
	r, err := qp.post1(p, Op{Kind: OpCAS, Off: off, Compare: compare, Swap: swap})
	return r.Old, r.OK, err
}

// MaskedCAS compares-and-swaps only the bits of mask within the 8-byte
// word at off.
func (qp *QP) MaskedCAS(p *sim.Proc, off, compare, swap, mask uint64) (old uint64, ok bool, err error) {
	r, err := qp.post1(p, Op{Kind: OpMaskedCAS, Off: off, Compare: compare, Swap: swap, Mask: mask})
	return r.Old, r.OK, err
}
