package trace

import (
	"fmt"
	"io"

	"crest/internal/sim"
)

// PhaseSlice is one contiguous interval an attempt spent in a phase,
// reconstructed from KindPhase transitions.
type PhaseSlice struct {
	Phase Phase
	Start sim.Time
	End   sim.Time
}

// Dur is the slice's length.
func (ps PhaseSlice) Dur() sim.Duration { return ps.End.Sub(ps.Start) }

// AttemptView is one reconstructed attempt of a span: its outcome, the
// exact virtual time spent in each phase, and the RDMA round-trips,
// verbs and payload bytes charged to each phase.
type AttemptView struct {
	N     int // 1-based attempt number
	Start sim.Time
	End   sim.Time // commit / abort instant (excludes release cleanup)

	Committed bool
	Reason    string // abort classification when !Committed
	False     bool   // abort was a false conflict

	Dur       [NumPhases]sim.Duration // virtual time per phase
	RTT       [NumPhases]int          // doorbell batches per phase
	Verbs     [NumPhases]int          // verbs posted per phase
	Bytes     [NumPhases]int          // payload bytes per phase
	Net       [NumPhases]sim.Duration // round-trip latency per phase
	Conflicts int

	Slices []PhaseSlice // the phase timeline, in order
}

// TotalRTTs sums round-trips across phases.
func (a *AttemptView) TotalRTTs() int {
	n := 0
	for _, v := range a.RTT {
		n += v
	}
	return n
}

// SpanView is one reconstructed transaction span: identity plus every
// attempt in order.
type SpanView struct {
	Coord uint64
	ID    uint64
	Txn   uint64
	Label string

	Attempts  []AttemptView
	Committed bool
}

// spanState is one span's open phase while Spans scans the stream, and
// the part of its slab region of phase slices no attempt has used yet.
type spanState struct {
	openPh  Phase
	openAt  sim.Time
	hasOpen bool
	lastAt  sim.Time
	free    []PhaseSlice
}

// attempt appends a to v's attempts. Phase slices are only ever
// appended to the last attempt, so a's start in the span's slab region
// where the previous attempt's end.
func (st *spanState) attempt(v *SpanView, a AttemptView) {
	if n := len(v.Attempts); n > 0 {
		st.free = st.free[len(v.Attempts[n-1].Slices):]
	}
	a.Slices = st.free[:0]
	v.Attempts = append(v.Attempts, a)
}

// closePhase ends the open phase slice at `at`, folding its length into
// the last attempt's per-phase duration.
func (st *spanState) closePhase(v *SpanView, at sim.Time) {
	if !st.hasOpen {
		return
	}
	a := &v.Attempts[len(v.Attempts)-1]
	a.Slices = append(a.Slices, PhaseSlice{Phase: st.openPh, Start: st.openAt, End: at})
	a.Dur[st.openPh] += at.Sub(st.openAt)
	st.hasOpen = false
}

// Spans reconstructs per-transaction span timelines from the event
// stream, in order of first appearance. Spans whose begin event was
// evicted from the ring are reconstructed from their surviving tail.
//
// A first pass numbers the spans and counts what each holds — an
// attempt per begin or retry, plus one resumed mid-flight when the
// begin was evicted, and a phase slice per phase entered — so the
// second builds every attempt and slice into two slabs that never grow.
func (s *Snapshot) Spans() []SpanView {
	type key struct {
		coord uint32
		id    uint64
	}
	type count struct{ attempts, slices int }
	idx := map[key]int32{}
	of := make([]int32, len(s.Events)) // each event's span; -1 for none
	var counts []count
	for i := range s.Events {
		e := &s.Events[i]
		if e.Span == 0 {
			of[i] = -1 // unattributed activity
			continue
		}
		k := key{e.Coord, e.Span}
		j, ok := idx[k]
		if !ok {
			j = int32(len(counts))
			idx[k] = j
			counts = append(counts, count{})
			if e.Kind != KindTxnBegin {
				counts[j].attempts++ // head of the span was evicted
			}
		}
		of[i] = j
		switch e.Kind {
		case KindTxnBegin, KindTxnRetry:
			counts[j].attempts++
		case KindPhase:
			counts[j].slices++
		}
	}

	var attempts, slices int
	for _, c := range counts {
		attempts += c.attempts
		slices += c.slices
	}
	attSlab, sliceSlab := make([]AttemptView, attempts), make([]PhaseSlice, slices)
	views := make([]SpanView, len(counts))
	states := make([]spanState, len(counts))
	for j, c := range counts {
		views[j].Attempts = attSlab[:0:c.attempts]
		attSlab = attSlab[c.attempts:]
		states[j].free = sliceSlab[:c.slices:c.slices]
		sliceSlab = sliceSlab[c.slices:]
	}

	for i := range s.Events {
		j := of[i]
		if j < 0 {
			continue
		}
		e, v, st := &s.Events[i], &views[j], &states[j]
		if v.ID == 0 {
			v.Coord, v.ID, v.Txn, v.Label = uint64(e.Coord), e.Span, e.Txn, s.Str(e.Label)
			if e.Kind != KindTxnBegin {
				// Head of the span was evicted; resume mid-flight.
				st.attempt(v, AttemptView{N: int(e.Attempt), Start: e.At})
			}
		}
		st.lastAt = e.At
		if e.Txn != 0 {
			v.Txn = e.Txn
		}
		switch e.Kind {
		case KindTxnBegin:
			st.attempt(v, AttemptView{N: 1, Start: e.At})
			v.Label = s.Str(e.Label)
		case KindTxnRetry:
			st.closePhase(v, e.At)
			st.attempt(v, AttemptView{N: int(e.Attempt), Start: e.At})
		case KindPhase:
			st.closePhase(v, e.At)
			st.openPh, st.openAt, st.hasOpen = e.Phase, e.At, true
		case KindTxnCommit:
			st.closePhase(v, e.At)
			a := &v.Attempts[len(v.Attempts)-1]
			a.End = e.At
			a.Committed = true
			v.Committed = true
		case KindTxnAbort:
			st.closePhase(v, e.At)
			a := &v.Attempts[len(v.Attempts)-1]
			a.End = e.At
			a.Reason = s.Str(e.Reason)
			a.False = e.False
		case KindRTT:
			a := &v.Attempts[len(v.Attempts)-1]
			a.RTT[e.Phase]++
			a.Verbs[e.Phase] += int(e.Ops)
			a.Bytes[e.Phase] += int(e.Bytes)
			a.Net[e.Phase] += sim.Duration(e.Latency)
		case KindConflict:
			v.Attempts[len(v.Attempts)-1].Conflicts++
		}
	}

	for j := range views {
		v := &views[j]
		states[j].closePhase(v, states[j].lastAt) // release slice of a final abort stays open
		for k := range v.Attempts {
			// Each attempt's slices end where the next one's begin.
			if a := &v.Attempts[k]; len(a.Slices) == 0 {
				a.Slices = nil
			} else {
				a.Slices = a.Slices[:len(a.Slices):len(a.Slices)]
			}
		}
	}
	return views
}

// WriteSpanSummary renders every reconstructed span as a text
// timeline: one block per transaction, one line per attempt, one line
// per phase with its virtual-time duration and round-trip attribution.
func WriteSpanSummary(w io.Writer, s *Snapshot) error {
	spans := s.Spans()
	if s.Dropped > 0 {
		fmt.Fprintf(w, "# ring dropped %d events; earliest spans may be truncated\n", s.Dropped)
	}
	for i := range spans {
		sv := &spans[i]
		outcome := "ABORTED"
		if sv.Committed {
			outcome = "committed"
		}
		fmt.Fprintf(w, "span %d coord %d txn %d %q: %d attempt(s), %s\n",
			sv.ID, sv.Coord, sv.Txn, sv.Label, len(sv.Attempts), outcome)
		for j := range sv.Attempts {
			a := &sv.Attempts[j]
			res := fmt.Sprintf("abort (%s)", a.Reason)
			if a.Committed {
				res = "commit"
			} else if a.False {
				res = fmt.Sprintf("abort (%s, false conflict)", a.Reason)
			}
			fmt.Fprintf(w, "  attempt %d @%.3fµs: %s in %s, %d RTT\n",
				a.N, float64(a.Start)/1e3, res, a.End.Sub(a.Start), a.TotalRTTs())
			for ph := PhaseExec; ph < NumPhases; ph++ {
				if a.Dur[ph] == 0 && a.RTT[ph] == 0 && a.Verbs[ph] == 0 {
					continue
				}
				fmt.Fprintf(w, "    %-8s %10s  %2d RTT  %3d verbs  %6d B  net %s\n",
					ph, a.Dur[ph], a.RTT[ph], a.Verbs[ph], a.Bytes[ph], a.Net[ph])
			}
		}
	}
	return nil
}
