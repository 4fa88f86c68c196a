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
	Verbs     [NumPhases]int          // verbs completed per phase
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

// spanBuild accumulates a SpanView while scanning the event stream.
type spanBuild struct {
	v       SpanView
	openPh  Phase
	openAt  sim.Time
	hasOpen bool
	lastAt  sim.Time
}

func (b *spanBuild) cur() *AttemptView {
	if len(b.v.Attempts) == 0 {
		b.v.Attempts = append(b.v.Attempts, AttemptView{N: 1})
	}
	return &b.v.Attempts[len(b.v.Attempts)-1]
}

// closePhase ends the open phase slice at `at`, folding its length into
// the attempt's per-phase duration.
func (b *spanBuild) closePhase(at sim.Time) {
	if !b.hasOpen {
		return
	}
	a := b.cur()
	a.Slices = append(a.Slices, PhaseSlice{Phase: b.openPh, Start: b.openAt, End: at})
	a.Dur[b.openPh] += at.Sub(b.openAt)
	b.hasOpen = false
}

func (b *spanBuild) openPhase(ph Phase, at sim.Time) {
	b.closePhase(at)
	b.openPh, b.openAt, b.hasOpen = ph, at, true
}

// Spans reconstructs per-transaction span timelines from the event
// stream, in order of first appearance. Spans whose begin event was
// evicted from the ring are reconstructed from their surviving tail.
func (s *Snapshot) Spans() []SpanView {
	type key struct {
		coord uint32
		id    uint64
	}
	idx := map[key]*spanBuild{}
	var order []*spanBuild

	get := func(e *Event) *spanBuild {
		k := key{e.Coord, e.Span}
		b := idx[k]
		if b == nil {
			b = &spanBuild{v: SpanView{Coord: uint64(e.Coord), ID: e.Span, Txn: e.Txn, Label: s.Str(e.Label)}}
			if e.Kind != KindTxnBegin {
				// Head of the span was evicted; resume mid-flight.
				b.v.Attempts = append(b.v.Attempts, AttemptView{N: int(e.Attempt), Start: e.At})
			}
			idx[k] = b
			order = append(order, b)
		}
		return b
	}

	for i := range s.Events {
		e := &s.Events[i]
		if e.Span == 0 {
			continue // proc events and other unattributed activity
		}
		b := get(e)
		b.lastAt = e.At
		if e.Txn != 0 {
			b.v.Txn = e.Txn
		}
		switch e.Kind {
		case KindTxnBegin:
			b.v.Attempts = append(b.v.Attempts, AttemptView{N: 1, Start: e.At})
			b.v.Label = s.Str(e.Label)
		case KindTxnRetry:
			b.closePhase(e.At)
			b.v.Attempts = append(b.v.Attempts, AttemptView{N: int(e.Attempt), Start: e.At})
		case KindPhase:
			b.openPhase(e.Phase, e.At)
		case KindTxnCommit:
			b.closePhase(e.At)
			a := b.cur()
			a.End = e.At
			a.Committed = true
			b.v.Committed = true
		case KindTxnAbort:
			b.closePhase(e.At)
			a := b.cur()
			a.End = e.At
			a.Reason = s.Str(e.Reason)
			a.False = e.False
		case KindVerbComplete:
			a := b.cur()
			a.Verbs[e.Phase]++
			a.Bytes[e.Phase] += int(e.Bytes)
		case KindRTT:
			a := b.cur()
			a.RTT[e.Phase]++
			a.Net[e.Phase] += sim.Duration(e.Latency)
		case KindConflict:
			b.cur().Conflicts++
		}
	}

	views := make([]SpanView, len(order))
	for i, b := range order {
		b.closePhase(b.lastAt) // release slice of a final abort stays open
		views[i] = b.v
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

// WriteHotKeys renders the top-k hot-key contention profile: the cells
// that lost the most lock CASes / validation checks, and how many
// aborts each caused.
func WriteHotKeys(w io.Writer, s *Snapshot, k int) error {
	hot := s.HotKeys(k)
	fmt.Fprintf(w, "%-4s %-6s %-12s %-4s %10s %10s\n", "rank", "table", "key", "cell", "conflicts", "aborts")
	for i := range hot {
		h := &hot[i]
		fmt.Fprintf(w, "%-4d %-6d %-12d %-4d %10d %10d\n",
			i+1, h.Table, h.Key, h.Cell, h.Conflicts, h.Aborts)
	}
	return nil
}
