package engine

import (
	"reflect"
	"testing"

	"crest/internal/causality"
	"crest/internal/flight"
	"crest/internal/layout"
	"crest/internal/metrics"
	"crest/internal/sim"
	"crest/internal/trace"
)

// observed is everything the four recorders captured.
type observed struct {
	Trace   *trace.Snapshot
	Metrics *metrics.Snapshot
	Why     *causality.Snapshot
	Flight  *flight.Snapshot
}

// runObserved opens one transaction on all four recorders over a
// contention table in which the record (1, 7) at offset obsOff has a
// holder (why id 99) and an updater (98), lets emit report one protocol
// event in the middle of it, and commits.
func runObserved(t *testing.T, emit func(o *Observers, p *sim.Proc)) observed {
	t.Helper()
	env, db := newTestDB(t)
	tab := db.CreateTable(layout.Schema{ID: 1, Name: "o", CellSizes: []int{8, 8, 8}}, 64, 8)
	row := db.Tracker.Row(1, tab.Heap.SlotOff(7))
	row.Acquire(1, 99, 0b110, 0b110)
	row.Update(5, 98, 0b010)
	db.Obs = Observers{
		Trace:   trace.NewRecorder(64),
		Metrics: metrics.NewRegistry(metrics.Options{Window: sim.Microsecond}),
		Why:     causality.NewRecorder(causality.Options{}),
		Flight:  flight.NewRecorder(flight.Options{}),

		conflicts: db.Tracker,
	}
	o := &db.Obs
	o.Metrics.BindEnv(env)
	o.met = newInstruments(o.Metrics, 1)
	env.Spawn("txn", func(p *sim.Proc) {
		c := db.beginObserved(p, 3, 0, &Txn{Label: "t"})
		p.Sleep(2 * sim.Microsecond)
		emit(o, p)
		p.Sleep(sim.Microsecond)
		o.Trace.Commit(p.Now(), &c.span)
		o.Why.Commit(p.Now(), c.why)
		dur := [trace.NumPhases]sim.Duration{trace.PhaseExec: 3 * sim.Microsecond}
		o.Flight.Done(p.Now(), c.flight, &dur, true)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return observed{o.Trace.Snapshot(), o.Metrics.Snapshot(), o.Why.Snapshot(), o.Flight.Snapshot()}
}

// Each semantic hook must record exactly what the hand-written fan-out
// it replaced recorded at that site: the same trace event, the same
// metric increment, the same why edge or attribution state, the same
// flight charge. The "by hand" column is that fan-out, each recorder
// handed its handle from the process's context, kept here as the
// reference.
func TestHooksMatchHandWrittenFanOut(t *testing.T) {
	const (
		table = layout.TableID(1)
		key   = layout.Key(7)
		mask  = uint64(0b010)
		wait  = 2 * sim.Microsecond
	)
	off := func(o *Observers) uint64 { return o.conflicts.tables[table].Heap.SlotOff(int(key)) }
	cases := []struct {
		name string
		hook func(o *Observers, p *sim.Proc)
		hand func(o *Observers, p *sim.Proc)
	}{
		{"LockAcquired",
			func(o *Observers, p *sim.Proc) { o.LockAcquired(p, table, key, mask) },
			func(o *Observers, p *sim.Proc) {
				o.Trace.LockAcquire(p.Now(), &ctxOf(p).span, table, key, mask)
				o.met.LockAcquires.Inc()
			}},
		{"LockConflict",
			func(o *Observers, p *sim.Proc) { o.LockConflict(p, table, key, off(o), mask) },
			func(o *Observers, p *sim.Proc) {
				o.Trace.Conflict(p.Now(), &ctxOf(p).span, table, key, mask)
				o.Why.LockFail(p.Now(), ctxOf(p).why, table, key, mask, 99)
				o.met.LockConflicts.Inc()
			}},
		{"ValidationConflict",
			func(o *Observers, p *sim.Proc) { o.ValidationConflict(p, table, key, off(o), mask, 1) },
			func(o *Observers, p *sim.Proc) {
				o.Trace.Conflict(p.Now(), &ctxOf(p).span, table, key, mask)
				o.Why.ValidationFail(p.Now(), ctxOf(p).why, table, key, mask, 98)
				o.met.LockConflicts.Inc()
			}},
		{"ValidationConflict past the updates",
			func(o *Observers, p *sim.Proc) { o.ValidationConflict(p, table, key, off(o), mask, 5) },
			func(o *Observers, p *sim.Proc) {
				o.Trace.Conflict(p.Now(), &ctxOf(p).span, table, key, mask)
				o.Why.ValidationFail(p.Now(), ctxOf(p).why, table, key, mask, 99)
				o.met.LockConflicts.Inc()
			}},
		{"LockReleased",
			func(o *Observers, p *sim.Proc) { o.LockReleased(p, table, key, mask) },
			func(o *Observers, p *sim.Proc) { o.Trace.LockRelease(p.Now(), &ctxOf(p).span, table, key, mask) }},
		{"Piggybacked",
			func(o *Observers, p *sim.Proc) { o.Piggybacked(p, table, key, mask) },
			func(o *Observers, p *sim.Proc) {
				o.Trace.LockPiggyback(p.Now(), &ctxOf(p).span, table, key, mask)
				o.met.Piggybacks.Inc()
			}},
		{"ENOverflow",
			func(o *Observers, p *sim.Proc) { o.ENOverflow(p, table, key, 1) },
			func(o *Observers, p *sim.Proc) { o.Trace.ENOverflow(p.Now(), &ctxOf(p).span, table, key, 1) }},
		{"LockWaiters+WaitedLocal",
			func(o *Observers, p *sim.Proc) {
				o.LockWaiters(1)
				o.LockWaiters(1)
				o.LockWaiters(-1)
				o.WaitedLocal(p, table, key, 42, wait)
			},
			func(o *Observers, p *sim.Proc) {
				o.met.LockWaiters.Inc()
				o.met.LockWaiters.Inc()
				o.met.LockWaiters.Dec()
				o.Why.LocalWait(p.Now(), ctxOf(p).why, table, key, 42, wait)
				o.Flight.Wait(ctxOf(p).flight, trace.PhaseExec, 42, wait)
			}},
		{"WaitedDependency",
			func(o *Observers, p *sim.Proc) { o.WaitedDependency(p, 42, wait) },
			func(o *Observers, p *sim.Proc) {
				o.Why.DependencyWait(p.Now(), ctxOf(p).why, 42, wait)
				o.Flight.Wait(ctxOf(p).flight, trace.PhaseExec, 42, wait)
			}},
		{"BackedOff",
			func(o *Observers, p *sim.Proc) { o.BackedOff(p, wait) },
			func(o *Observers, p *sim.Proc) { o.Flight.Backoff(ctxOf(p).flight, trace.PhaseExec, wait) }},
	}
	quiet := runObserved(t, func(*Observers, *sim.Proc) {})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, want := runObserved(t, tc.hook), runObserved(t, tc.hand)
			if !reflect.DeepEqual(got.Trace, want.Trace) {
				t.Errorf("trace differs:\n got %+v\nwant %+v", got.Trace.Events, want.Trace.Events)
			}
			if !reflect.DeepEqual(got.Metrics, want.Metrics) {
				t.Errorf("metrics differ:\n got %+v\nwant %+v", got.Metrics.Series, want.Metrics.Series)
			}
			if !reflect.DeepEqual(got.Why, want.Why) {
				t.Errorf("why differs:\n got %+v\nwant %+v", got.Why.Edges, want.Why.Edges)
			}
			if !reflect.DeepEqual(got.Flight, want.Flight) {
				t.Errorf("flight differs:\n got %+v\nwant %+v", got.Flight.Txns, want.Flight.Txns)
			}
			if reflect.DeepEqual(got, quiet) {
				t.Error("the hook recorded nothing: the comparison is vacuous")
			}
		})
	}
}

// On the zero Observers every hook is a no-op that allocates nothing —
// the price an unobserved run pays at each emission site.
func TestHooksNoOpWhenDisabled(t *testing.T) {
	env := sim.NewEnv(1)
	env.Spawn("txn", func(p *sim.Proc) {
		var o Observers
		if avg := testing.AllocsPerRun(100, func() {
			o.LockAcquired(p, 1, 7, 1)
			o.LockConflict(p, 1, 7, 0, 1)
			o.ValidationConflict(p, 1, 7, 0, 1, 5)
			o.LockReleased(p, 1, 7, 1)
			o.Piggybacked(p, 1, 7, 1)
			o.ENOverflow(p, 1, 7, 0)
			o.LockWaiters(1)
			o.WaitedLocal(p, 1, 7, 42, sim.Microsecond)
			o.WaitedDependency(p, 42, sim.Microsecond)
			o.BackedOff(p, sim.Microsecond)
		}); avg != 0 {
			t.Errorf("disabled hooks allocate %v/run, want 0", avg)
		}
		if !reflect.DeepEqual(o, Observers{}) {
			t.Errorf("disabled hooks changed the zero Observers: %+v", o)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// BeginAttempt decides new transaction or retry once, for every view:
// the same *Txn after an abort is its next attempt under the same id, a
// different one abandons it and begins under the partition's next id,
// and after a commit even the same *Txn begins anew.
func TestBeginAttemptDecidesRetryOnce(t *testing.T) {
	env, db := newTestDB(t)
	db.Attach(Observers{Trace: trace.NewRecorder(0), Why: causality.NewRecorder(causality.Options{}),
		Flight: flight.NewRecorder(flight.Options{})}, env, 0)
	a, b := &Txn{Label: "a"}, &Txn{Label: "b"}
	env.Spawn("coord", func(p *sim.Proc) {
		for _, step := range []struct {
			txn  *Txn
			fail bool
		}{{a, true}, {a, true}, {b, false}, {b, false}} {
			at := BeginAttempt(db, p, 1, 0, step.txn)
			p.Sleep(sim.Microsecond)
			if step.fail {
				at.Fail(AbortLockFail, false)
			}
			at.Done()
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	type view struct {
		id       uint64
		label    string
		attempts int
		done     bool
	}
	want := []view{{1, "a", 2, false}, {2, "b", 1, true}, {3, "b", 1, true}}
	var begins, whys, flights []view
	for _, s := range db.Obs.Trace.Snapshot().Spans() {
		begins = append(begins, view{s.ID, s.Label, len(s.Attempts), s.Committed})
	}
	for _, x := range db.Obs.Why.Snapshot().Txns {
		whys = append(whys, view{x.ID, x.Label, x.Attempt, x.State == causality.StateCommitted})
	}
	for _, x := range db.Obs.Flight.Snapshot().Txns {
		flights = append(flights, view{x.ID, x.Label, x.Attempts, x.Committed})
	}
	for name, got := range map[string][]view{"trace": begins, "why": whys, "flight": flights} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s recorded %+v, want %+v", name, got, want)
		}
	}
}
