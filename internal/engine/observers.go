package engine

import (
	"crest/internal/causality"
	"crest/internal/flight"
	"crest/internal/layout"
	"crest/internal/metrics"
	"crest/internal/rdma"
	"crest/internal/sim"
	"crest/internal/trace"
)

// Observers is the one seam between a run and its observability
// recorders: the trace recorder, the metrics registry, the causality
// (why) recorder, the flight recorder and the history (the
// serializability oracle of tests), any of which may be nil. It
// lives on DB, is installed by DB.Attach, and is what the engines and
// the fabric talk to: AttemptTimer reports the attempt lifecycle (begin,
// phase, fail, done), the methods below report the protocol events
// every one-sided concurrency-control scheme shares, and each fabric
// lane reports its posts (rdma.Observer), each fanning out to the
// recorders that care — so an engine calls one method per site and
// imports no recorder package for emission.
//
// The recorders keep no per-process state of their own. A coordinator
// process carries one observer context (txnCtx), which BeginAttempt
// owns; the methods below find it from the process and hand each
// recorder its handle from it.
//
// Every recorder is nil-safe and host-side only: the zero Observers is
// the disabled state, every method on it is a no-op, and attaching
// recorders never changes virtual time, events or randomness.
type Observers struct {
	Trace   *trace.Recorder
	Metrics *metrics.Registry
	Why     *causality.Recorder
	Flight  *flight.Recorder
	History *History

	met       instruments        // engine instruments registered in Metrics
	fab       *fabricInstruments // a fabric lane's instruments; nil elsewhere
	conflicts *ConflictTracker   // the DB's contention table, where Why finds holders
}

// txnCtx is a coordinator process's observer context: the logical
// transaction the process runs, as every view sees it. BeginAttempt
// creates it on the process's first observed attempt, keeps it in the
// process's observer slot and decides there, once for every view,
// whether an attempt retries the transaction or begins a new one. It is
// per process, not per coordinator: crest.Cluster runs a process per
// transaction, several at once on one coordinator. A reused process
// shell starts without one.
type txnCtx struct {
	txn    *Txn           // the transaction being attempted; nil once it committed
	begin  sim.Time       // when its first attempt began
	span   trace.Span     // identity, attempt, phase; the trace's live span
	why    *causality.Txn // nil unless the why recorder is on
	flight *flight.Record // nil unless the flight recorder is on and the transaction is open
}

// ctxOf returns p's observer context (nil when no attempt on p was
// observed).
func ctxOf(p *sim.Proc) *txnCtx {
	c, _ := p.Ctx().(*txnCtx)
	return c
}

// spanOf returns c's span, nil without a context.
func (c *txnCtx) spanOf() *trace.Span {
	if c == nil {
		return nil
	}
	return &c.span
}

// whyOf returns c's why node, nil without a context.
func (c *txnCtx) whyOf() *causality.Txn {
	if c == nil {
		return nil
	}
	return c.why
}

// beginObserved opens attempt t on p's observer context, creating the
// context on the process's first observed attempt, and returns it. t is
// a retry when it is the transaction the context holds; anything else
// begins a new logical transaction under the partition's next id, and a
// predecessor still open after an abort is abandoned.
func (db *DB) beginObserved(p *sim.Proc, coord uint64, home int, t *Txn) *txnCtx {
	o := &db.Obs
	c := ctxOf(p)
	if c == nil {
		c = &txnCtx{}
		p.SetCtx(c)
	}
	now := p.Now()
	if c.txn == t {
		c.span.Attempt++
		c.span.Phase = trace.PhaseExec
		o.Why.Retry(c.why)
		o.Flight.Retry(now, c.flight)
	} else {
		o.Flight.Abandon(c.flight)
		*c = txnCtx{txn: t, begin: now, span: trace.Span{Coord: coord, ID: db.obsNext, Label: t.Label, Attempt: 1}}
		db.obsNext += db.txnStride
		c.why = o.Why.Begin(now, &c.span)
		c.flight = o.Flight.Begin(now, &c.span, home)
	}
	o.Trace.Begin(now, &c.span)
	return c
}

// Attach installs obs on a run: the metrics registry on the scheduler
// of each simulation partition (env's world, or env alone), the
// recorders on the fabric's lanes and on db itself; warmup is the
// flight recorder's capture cutoff. The fabric's per-node instruments
// cover the regions registered by now. On a partitioned world each
// partition gets its own shard of every recorder (Shard(i, parts)),
// written lock-free by the partition's worker and merged
// deterministically at snapshot time. Attach after the pool exists and
// before anything runs; it is the only place observers are wired.
func (db *DB) Attach(obs Observers, env *sim.Env, warmup sim.Duration) {
	envs := []*sim.Env{env}
	if w := env.World(); w != nil {
		envs = envs[:0]
		for i := 0; i < w.Parts(); i++ {
			envs = append(envs, w.Env(i))
		}
	}
	// Each partition shard binds its own scheduler, so the sim
	// instruments cover the whole world after the merge.
	for i, e := range envs {
		obs.Metrics.Shard(i, len(envs)).BindEnv(e)
	}
	if obs.Trace != nil || obs.Metrics != nil || obs.Flight != nil {
		lanes := db.Fabric.Lanes()
		for i := 0; i < lanes; i++ {
			db.Fabric.SetObserver(i, &Observers{Trace: obs.Trace.Shard(i, lanes), Flight: obs.Flight.Shard(i, lanes),
				fab: newFabricInstruments(obs.Metrics.Shard(i, lanes), db.Fabric.Regions())})
		}
	}
	obs.Flight.SetWarmup(sim.Time(warmup))
	obs.met = newInstruments(obs.Metrics, db.Pool.Shards())
	obs.conflicts = db.Tracker
	db.Obs = obs
}

// shard returns the bundle partition part of parts records into: that
// partition's shard of every recorder, with the engine instruments
// registered on the shard registry so counts accrue partition-locally
// (registration is idempotent, so below two partitions this is the
// receiver's own bundle again), over the partition's contention table.
func (o Observers) shard(part, parts, shardGroups int, conflicts *ConflictTracker) Observers {
	s := Observers{
		Trace:   o.Trace.Shard(part, parts),
		Metrics: o.Metrics.Shard(part, parts),
		Why:     o.Why.Shard(part, parts),
		Flight:  o.Flight.Shard(part, parts),
		History: o.History.Shard(part, parts),

		conflicts: conflicts,
	}
	s.met = newInstruments(s.Metrics, shardGroups)
	return s
}

// LockAcquired reports that the transaction on p won the lock on the
// given cells of a record (mask 0: the record-level lock word).
func (o *Observers) LockAcquired(p *sim.Proc, table layout.TableID, key layout.Key, mask uint64) {
	o.Trace.LockAcquire(p.Now(), ctxOf(p).spanOf(), table, key, mask)
	o.met.LockAcquires.Inc()
}

// LockConflict reports that the transaction on p lost a lock CAS on —
// or read a locked snapshot of — the given cells of the record at heap
// offset off, held, for the why recorder, by the contention table's
// oldest live holder of them.
func (o *Observers) LockConflict(p *sim.Proc, table layout.TableID, key layout.Key, off, mask uint64) {
	c := ctxOf(p)
	o.Trace.Conflict(p.Now(), c.spanOf(), table, key, mask)
	if o.Why != nil {
		o.Why.LockFail(p.Now(), c.whyOf(), table, key, mask, o.conflicts.Row(table, off).HolderOf(mask))
	}
	o.met.LockConflicts.Inc()
}

// ValidationConflict reports that a cell the transaction on p read at
// version since, of the record at heap offset off, changed (or is
// locked) at validation: for the why recorder, by the newest updater
// past since in the contention table, else its oldest live holder of
// the cells (0 once the version left the update ring).
func (o *Observers) ValidationConflict(p *sim.Proc, table layout.TableID, key layout.Key, off, mask, since uint64) {
	c := ctxOf(p)
	o.Trace.Conflict(p.Now(), c.spanOf(), table, key, mask)
	if o.Why != nil {
		row := o.conflicts.Row(table, off)
		holder := row.UpdaterSince(since)
		if holder == 0 {
			holder = row.HolderOf(mask)
		}
		o.Why.ValidationFail(p.Now(), c.whyOf(), table, key, mask, holder)
	}
	o.met.LockConflicts.Inc()
}

// LockReleased reports the release of the locks on the given cells
// (abort cleanup or write-back).
func (o *Observers) LockReleased(p *sim.Proc, table layout.TableID, key layout.Key, mask uint64) {
	o.Trace.LockRelease(p.Now(), ctxOf(p).spanOf(), table, key, mask)
}

// WhyID returns the why id of the transaction on p, 0 without a recorder.
func (o *Observers) WhyID(p *sim.Proc) uint64 { return ctxOf(p).whyOf().WhyID() }

// Piggybacked reports that the local transaction on p reused remote
// locks an earlier local transaction already holds (CREST §5.1).
func (o *Observers) Piggybacked(p *sim.Proc, table layout.TableID, key layout.Key, mask uint64) {
	o.Trace.LockPiggyback(p.Now(), ctxOf(p).spanOf(), table, key, mask)
	o.met.Piggybacks.Inc()
}

// ENOverflow reports a cell's 16-bit epoch number wrapping.
func (o *Observers) ENOverflow(p *sim.Proc, table layout.TableID, key layout.Key, cell int) {
	o.Trace.ENOverflow(p.Now(), ctxOf(p).spanOf(), table, key, cell)
}

// LockWaiters moves the lock-wait depth gauge: +1 when a coordinator
// is about to park behind a held local lock, -1 when it got the lock.
func (o *Observers) LockWaiters(delta int64) { o.met.LockWaiters.Add(delta) }

// WaitedLocal reports that the transaction on p just spent d blocked on
// a compute-node-local object (cache-line mutex, admission or flush
// queue) held by the transaction with why id holder (0: unknown).
func (o *Observers) WaitedLocal(p *sim.Proc, table layout.TableID, key layout.Key, holder uint64, d sim.Duration) {
	c := ctxOf(p)
	o.Why.LocalWait(p.Now(), c.whyOf(), table, key, holder, d)
	if c != nil {
		o.Flight.Wait(c.flight, c.span.Phase, holder, d)
	}
}

// WaitedDependency reports that the transaction on p just spent d
// waiting for the local transaction with why id holder to resolve
// (CREST §5.2).
func (o *Observers) WaitedDependency(p *sim.Proc, holder uint64, d sim.Duration) {
	c := ctxOf(p)
	o.Why.DependencyWait(p.Now(), c.whyOf(), holder, d)
	if c != nil {
		o.Flight.Wait(c.flight, c.span.Phase, holder, d)
	}
}

// BackedOff reports an intra-attempt backoff sleep of d (a lock-retry
// pause inside a phase) that just ended on p.
func (o *Observers) BackedOff(p *sim.Proc, d sim.Duration) {
	if c := ctxOf(p); c != nil {
		o.Flight.Backoff(c.flight, c.span.Phase, d)
	}
}

// Posted implements rdma.Observer for a fabric lane: the fabric's post
// counters, batch by batch.
func (o *Observers) Posted(p *sim.Proc, batches []rdma.Batch) {
	if o.fab == nil {
		return
	}
	for _, b := range batches {
		o.fab.post(b)
	}
}

// Completed implements rdma.Observer for a fabric lane, after a post
// parked for lat: each batch's round trip, which carries its verbs and
// bytes and is charged the whole latency (doorbell batching amortizes
// the round trip across the verbs, not the other way around), and one
// flight wire charge — one park, one charge.
func (o *Observers) Completed(p *sim.Proc, batches []rdma.Batch, lat sim.Duration) {
	c := ctxOf(p)
	s := c.spanOf()
	for _, b := range batches {
		if o.Trace != nil {
			o.Trace.RTT(p.Now(), s, b.QP.ID(), b.QP.Region().ID(), len(b.Ops), b.Payload(), lat)
		}
		if o.fab != nil {
			o.fab.complete(b)
		}
	}
	if o.Flight != nil && c != nil {
		o.Flight.Wire(c.flight, c.span.Phase, wireClass(batches), lat)
	}
}

// wireClass classifies a post for flight's wire time: the class every
// verb of it shares, or mixed.
func wireClass(batches []rdma.Batch) flight.VerbClass {
	c := verbClass(batches[0].Ops[0].Kind)
	for _, b := range batches {
		for i := range b.Ops {
			if verbClass(b.Ops[i].Kind) != c {
				return flight.ClassMixed
			}
		}
	}
	return c
}

// verbClass maps a verb to its flight wire class.
func verbClass(k rdma.OpKind) flight.VerbClass {
	switch k {
	case rdma.OpRead:
		return flight.ClassRead
	case rdma.OpWrite:
		return flight.ClassWrite
	case rdma.OpCAS:
		return flight.ClassCAS
	case rdma.OpMaskedCAS:
		return flight.ClassMaskedCAS
	}
	return flight.ClassMixed
}
