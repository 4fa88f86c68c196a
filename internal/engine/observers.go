package engine

import (
	"crest/internal/causality"
	"crest/internal/flight"
	"crest/internal/layout"
	"crest/internal/metrics"
	"crest/internal/sim"
	"crest/internal/trace"
)

// Observers is the one seam between a run and its observability
// recorders: the trace recorder, the metrics registry, the causality
// (why) recorder and the flight recorder, any of which may be nil. It
// lives on DB, is installed by DB.Attach, and is what the engines talk
// to: AttemptTimer reports the attempt lifecycle (begin, phase, fail,
// done) and the methods below report the protocol events every
// one-sided concurrency-control scheme shares, each fanning out to the
// recorders that care — so an engine calls one method per site and
// imports no recorder package for emission.
//
// Every recorder is nil-safe and host-side only: the zero Observers is
// the disabled state, every method on it is a no-op, and attaching
// recorders never changes virtual time, events or randomness.
type Observers struct {
	Trace   *trace.Recorder
	Metrics *metrics.Registry
	Why     *causality.Recorder
	Flight  *flight.Recorder

	met instruments // engine instruments registered in Metrics
}

// Attach installs obs on every seam of a run: the scheduler of each
// simulation partition (env's world, or env alone), the fabric's lanes
// and db itself; warmup is the flight recorder's capture cutoff. On a
// partitioned world each partition gets its own shard of every
// recorder (Shard(i, parts)), written lock-free by the partition's
// worker and merged deterministically at snapshot time. Attach after
// the pool exists and before anything runs; it is the only place
// observers are wired.
func (db *DB) Attach(obs Observers, env *sim.Env, warmup sim.Duration) {
	envs := []*sim.Env{env}
	if w := env.World(); w != nil {
		envs = envs[:0]
		for i := 0; i < w.Parts(); i++ {
			envs = append(envs, w.Env(i))
		}
	}
	for i, e := range envs {
		if obs.Trace != nil {
			e.SetObserver(obs.Trace.Shard(i, len(envs)))
		}
		// Each partition shard binds its own scheduler, so the sim
		// instruments cover the whole world after the merge.
		obs.Metrics.Shard(i, len(envs)).BindEnv(e)
	}
	db.Fabric.SetObservers(obs.Trace, obs.Metrics, obs.Flight)
	obs.Flight.SetWarmup(sim.Time(warmup))
	obs.met = newInstruments(obs.Metrics, db.Pool.Shards())
	db.Obs = obs
}

// shard returns the bundle partition part of parts records into: that
// partition's shard of every recorder, with the engine instruments
// registered on the shard registry so counts accrue partition-locally
// (registration is idempotent, so below two partitions this is the
// receiver's own bundle again).
func (o Observers) shard(part, parts, shardGroups int) Observers {
	s := Observers{
		Trace:   o.Trace.Shard(part, parts),
		Metrics: o.Metrics.Shard(part, parts),
		Why:     o.Why.Shard(part, parts),
		Flight:  o.Flight.Shard(part, parts),
	}
	s.met = newInstruments(s.Metrics, shardGroups)
	return s
}

// LockAcquired reports that the transaction on p won the lock on the
// given cells of a record (mask 0: the record-level lock word).
func (o *Observers) LockAcquired(p *sim.Proc, table layout.TableID, key layout.Key, mask uint64) {
	if o.Trace != nil {
		o.Trace.LockAcquire(p.Now(), trace.SpanOf(p), table, key, mask)
	}
	o.Why.OnLock(p, table, key, mask)
	o.met.LockAcquires.Inc()
}

// LockConflict reports that the transaction on p lost a lock CAS on —
// or read a locked snapshot of — the given cells.
func (o *Observers) LockConflict(p *sim.Proc, table layout.TableID, key layout.Key, mask uint64) {
	if o.Trace != nil {
		o.Trace.Conflict(p.Now(), trace.SpanOf(p), table, key, mask)
	}
	o.Why.LockFail(p, table, key, mask)
	o.met.LockConflicts.Inc()
}

// ValidationConflict reports that a cell the transaction on p read at
// version since changed (or is locked) at validation.
func (o *Observers) ValidationConflict(p *sim.Proc, table layout.TableID, key layout.Key, mask, since uint64) {
	if o.Trace != nil {
		o.Trace.Conflict(p.Now(), trace.SpanOf(p), table, key, mask)
	}
	o.Why.ValidationFail(p, table, key, mask, since)
	o.met.LockConflicts.Inc()
}

// LockReleased reports that the locks on the given cells were released
// (abort cleanup or write-back).
func (o *Observers) LockReleased(p *sim.Proc, table layout.TableID, key layout.Key, mask uint64) {
	if o.Trace != nil {
		o.Trace.LockRelease(p.Now(), trace.SpanOf(p), table, key, mask)
	}
	o.Why.OnUnlock(table, key, mask)
}

// Updated reports that the transaction with why id writer installed
// version over cells — the attribution a later validation conflict
// resolves its holder from.
func (o *Observers) Updated(writer uint64, table layout.TableID, key layout.Key, version, cells uint64) {
	o.Why.OnUpdate(writer, table, key, version, cells)
}

// CommitReleased reports the commit write-back of one record by the
// transaction on p: it installed version over cells and released the
// locks on mask.
func (o *Observers) CommitReleased(p *sim.Proc, table layout.TableID, key layout.Key, version, cells, mask uint64) {
	o.Why.OnUpdate(causality.IDOf(p), table, key, version, cells)
	o.LockReleased(p, table, key, mask)
}

// Piggybacked reports that the local transaction on p reused remote
// locks an earlier local transaction already holds (CREST §5.1).
func (o *Observers) Piggybacked(p *sim.Proc, table layout.TableID, key layout.Key, mask uint64) {
	if o.Trace != nil {
		o.Trace.LockPiggyback(p.Now(), trace.SpanOf(p), table, key, mask)
	}
	o.met.Piggybacks.Inc()
}

// ENOverflow reports a cell's 16-bit epoch number wrapping.
func (o *Observers) ENOverflow(p *sim.Proc, table layout.TableID, key layout.Key, cell int) {
	if o.Trace != nil {
		o.Trace.ENOverflow(p.Now(), trace.SpanOf(p), table, key, cell)
	}
}

// LockWaiters moves the lock-wait depth gauge: +1 when a coordinator
// is about to park behind a held local lock, -1 when it got the lock.
func (o *Observers) LockWaiters(delta int64) { o.met.LockWaiters.Add(delta) }

// WaitedLocal reports that the transaction on p just spent d blocked on
// a compute-node-local object (cache-line mutex, admission or flush
// queue) held by the transaction with why id holder (0: unknown).
func (o *Observers) WaitedLocal(p *sim.Proc, table layout.TableID, key layout.Key, holder uint64, d sim.Duration) {
	o.Why.LocalWait(p, table, key, holder, d)
	o.Flight.Wait(p, holder, d)
}

// WaitedDependency reports that the transaction on p just spent d
// waiting for the local transaction with why id holder to resolve
// (CREST §5.2).
func (o *Observers) WaitedDependency(p *sim.Proc, holder uint64, d sim.Duration) {
	o.Why.DependencyWait(p, holder, d)
	o.Flight.Wait(p, holder, d)
}

// BackedOff reports an intra-attempt backoff sleep of d (a lock-retry
// pause inside a phase) that just ended on p.
func (o *Observers) BackedOff(p *sim.Proc, d sim.Duration) {
	o.Flight.Backoff(p, d)
}
