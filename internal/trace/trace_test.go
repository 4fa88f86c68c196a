package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"unsafe"

	"crest/internal/layout"
	"crest/internal/sim"
)

// inProc runs fn inside one simulated process and drives the
// environment to completion.
func inProc(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	env := sim.NewEnv(1)
	env.Spawn("test", fn)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// enter moves s into phase ph and records the transition, as the
// engine's attempt timer does.
func enter(r *Recorder, at sim.Time, s *Span, ph Phase) {
	s.Phase = ph
	r.EnterPhase(at, s)
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	inProc(t, func(p *sim.Proc) {
		s := &Span{Coord: 1, ID: 1, Label: "txn", Attempt: 1}
		r.Begin(p.Now(), s)
		enter(r, p.Now(), s, PhaseLock)
		r.RTT(p.Now(), s, 1, 0, 1, 8, sim.Microsecond)
		r.Conflict(p.Now(), s, 1, 2, 0b11)
		r.LockAcquire(p.Now(), s, 1, 2, 0b11)
		r.LockPiggyback(p.Now(), s, 1, 2, 0b11)
		r.LockRelease(p.Now(), s, 1, 2, 0b11)
		r.ENOverflow(p.Now(), s, 1, 2, 0)
		r.Abort(p.Now(), s, "lock-conflict", false)
		r.Commit(p.Now(), s)
	})
	snap := r.Snapshot()
	if len(snap.Events) != 0 || snap.Dropped != 0 {
		t.Fatalf("nil recorder snapshot not empty: %+v", snap)
	}
}

func TestRingEvictsOldestAndCountsDrops(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Conflict(sim.Time(i), nil, 1, layout.Key(i), 1)
	}
	snap := r.Snapshot()
	if len(snap.Events) != 4 || snap.Dropped != 6 {
		t.Fatalf("snapshot holds %d events, dropped %d; want 4 and 6", len(snap.Events), snap.Dropped)
	}
	for i, e := range snap.Events {
		if want := sim.Time(6 + i); e.At != want {
			t.Fatalf("event %d at %d, want %d", i, e.At, want)
		}
	}
}

// A retry is the same span at its next attempt: Begin records it as a
// retry under the span's id, and only a first attempt as a begin.
func TestRetryReusesSpanAndBumpsAttempt(t *testing.T) {
	r := NewRecorder(0)
	s := &Span{Coord: 7, ID: 1, Label: "transfer", Attempt: 1}
	r.Begin(0, s)
	r.Abort(0, s, "lock-conflict", false)
	s.Attempt++
	r.Begin(0, s)
	r.Commit(0, s)
	r.Begin(0, &Span{Coord: 7, ID: 2, Label: "transfer", Attempt: 1})
	type ev struct {
		kind          Kind
		span, attempt uint64
	}
	var got []ev
	for _, e := range r.Snapshot().Events {
		got = append(got, ev{e.Kind, e.Span, uint64(e.Attempt)})
	}
	want := []ev{{KindTxnBegin, 1, 1}, {KindPhase, 1, 1}, {KindTxnAbort, 1, 1}, {KindTxnRetry, 1, 2},
		{KindPhase, 1, 2}, {KindTxnCommit, 1, 2}, {KindTxnBegin, 2, 1}, {KindPhase, 2, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
}

func TestSpansReconstructPhasesAndRTTs(t *testing.T) {
	r := NewRecorder(0)
	inProc(t, func(p *sim.Proc) {
		s := &Span{Coord: 2, ID: 1, Label: "pay", Attempt: 1}
		r.Begin(p.Now(), s)
		p.Sleep(100 * sim.Nanosecond)
		enter(r, p.Now(), s, PhaseLock)
		r.RTT(p.Now().Add(2*sim.Microsecond), s, 1, 0, 2, 64, 2*sim.Microsecond)
		p.Sleep(2 * sim.Microsecond)
		enter(r, p.Now(), s, PhaseValidate)
		p.Sleep(300 * sim.Nanosecond)
		r.Commit(p.Now(), s)
	})
	spans := r.Snapshot().Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	sv := spans[0]
	if !sv.Committed || sv.Label != "pay" || len(sv.Attempts) != 1 {
		t.Fatalf("span = %+v", sv)
	}
	a := sv.Attempts[0]
	if a.Dur[PhaseExec] != 100*sim.Nanosecond {
		t.Fatalf("exec dur = %v", a.Dur[PhaseExec])
	}
	if a.Dur[PhaseLock] != 2*sim.Microsecond {
		t.Fatalf("lock dur = %v", a.Dur[PhaseLock])
	}
	if a.Dur[PhaseValidate] != 300*sim.Nanosecond {
		t.Fatalf("validate dur = %v", a.Dur[PhaseValidate])
	}
	if a.RTT[PhaseLock] != 1 || a.Net[PhaseLock] != 2*sim.Microsecond || a.TotalRTTs() != 1 {
		t.Fatalf("lock RTT attribution = %d (%v)", a.RTT[PhaseLock], a.Net[PhaseLock])
	}
	if a.End.Sub(a.Start) != 2*sim.Microsecond+400*sim.Nanosecond {
		t.Fatalf("attempt length = %v", a.End.Sub(a.Start))
	}
}

func TestChromeExportIsValidAndDeterministic(t *testing.T) {
	build := func() *Snapshot {
		r := NewRecorder(0)
		inProc(t, func(p *sim.Proc) {
			s := &Span{Coord: 1, ID: 1, Label: "t", Attempt: 1}
			r.Begin(p.Now(), s)
			p.Sleep(sim.Microsecond)
			r.Conflict(p.Now(), s, 1, 5, 1)
			r.Abort(p.Now(), s, "lock-conflict", true)
			enter(r, p.Now(), s, PhaseRelease)
			s.Attempt, s.Phase = 2, PhaseExec
			r.Begin(p.Now(), s)
			p.Sleep(sim.Microsecond)
			r.Commit(p.Now(), s)
		})
		return r.Snapshot()
	}
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical snapshots produced different JSON bytes")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("export has no events")
	}
	phases := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e["cat"] == "phase" {
			phases[e["name"].(string)] = true
		}
	}
	if !phases["execute"] {
		t.Fatalf("no execute phase slice in export: %v", phases)
	}
}

// The record rule (DESIGN.md §12): a trace event is a fixed-size value
// with no pointer in it, 80 bytes.
func TestEventIsACompactRecord(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size > 80 {
		t.Errorf("Event is %d bytes, want at most 80", size)
	}
	typ := reflect.TypeOf(Event{})
	for i := 0; i < typ.NumField(); i++ {
		switch k := typ.Field(i).Type.Kind(); k {
		case reflect.String, reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("Event.%s is a %v: the collector would have to scan the ring", typ.Field(i).Name, k)
		}
	}
}
