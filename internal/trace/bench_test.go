package trace

import (
	"bytes"
	"io"
	"testing"

	"crest/internal/layout"
	"crest/internal/sim"
)

// syntheticTxns records txns transactions shaped like a contended
// CREST run's — two round-trips of three verbs, lock traffic, every
// fourth one a conflict, an abort and a retry — about 12 events each,
// one virtual microsecond apart. The benchmarks below run over the ring
// this leaves.
func syntheticTxns(p *sim.Proc, r *Recorder, txns int) {
	labels := [...]string{"Amalgamate", "Balance", "DepositChecking", "SendPayment", "TransactSavings", "WriteCheck"}
	for i := 0; i < txns; i++ {
		key := layout.Key(i % 97)
		s := &Span{Coord: uint64(i%120 + 1), ID: uint64(i + 1), Label: labels[i%len(labels)], Txn: uint64(i + 1)}
		attempts := 1 + (i&3)/3
		for a := 0; a < attempts; a++ {
			s.Attempt, s.Phase = a+1, PhaseExec
			r.Begin(p.Now(), s)
			for rt := 0; rt < 2; rt++ {
				r.RTT(p.Now(), s, i%240, i%4, 3, 192, 2*sim.Microsecond)
			}
			enter(r, p.Now(), s, PhaseLock)
			if a < attempts-1 {
				r.Conflict(p.Now(), s, 2, key, 0b101)
				r.Abort(p.Now(), s, "lock-conflict", a == 0)
				continue
			}
			r.LockAcquire(p.Now(), s, 2, key, 0b101)
			enter(r, p.Now(), s, PhaseLog)
			enter(r, p.Now(), s, PhaseApply)
			r.LockRelease(p.Now(), s, 2, key, 0b101)
			r.Commit(p.Now(), s)
		}
		p.Sleep(sim.Microsecond)
	}
}

// benchProc runs fn, timed, inside one simulated process.
func benchProc(b *testing.B, fn func(p *sim.Proc)) {
	b.Helper()
	env := sim.NewEnv(1)
	env.Spawn("bench", fn)
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEmit is the recording cost of one event into a ring of the
// default capacity, its first write and wrap-around included.
func BenchmarkEmit(b *testing.B) {
	r := NewRecorder(0)
	benchProc(b, func(p *sim.Proc) {
		s := &Span{Coord: 7, ID: 1, Label: "Amalgamate", Attempt: 1}
		r.Begin(p.Now(), s)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += 2 {
			r.RTT(p.Now(), s, 17, 1, 3, 192, 2*sim.Microsecond)
			r.LockAcquire(p.Now(), s, 2, 9, 0b101)
		}
	})
}

// syntheticRing is a recorder holding 11 000 synthetic transactions'
// events (about 129 000: nearly a full default ring).
func syntheticRing(b *testing.B) *Recorder {
	r := NewRecorder(0)
	benchProc(b, func(p *sim.Proc) { syntheticTxns(p, r, 11000) })
	return r
}

func BenchmarkSnapshot(b *testing.B) {
	r := syntheticRing(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := r.Snapshot(); len(s.Events) != r.ring.Len() {
			b.Fatal("short snapshot")
		}
	}
}

func BenchmarkWriteChromeTrace(b *testing.B) {
	s := syntheticRing(b).Snapshot()
	var doc bytes.Buffer
	if err := WriteChromeTrace(&doc, s); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeTrace(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}
