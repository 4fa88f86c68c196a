package flight

import (
	"bytes"
	"io"
	"testing"

	"crest/internal/sim"
	"crest/internal/trace"
)

// syntheticTxns records txns transactions shaped like a contended run's:
// two fabric parks, a lock wait, every fourth one aborted and retried
// after a backoff — each a few virtual microseconds long.
func syntheticTxns(p *sim.Proc, r *Recorder, txns int) {
	labels := [...]string{"Amalgamate", "Balance", "DepositChecking", "SendPayment", "TransactSavings", "WriteCheck"}
	for i := 0; i < txns; i++ {
		tx := txn{r: r, p: p, home: i % 3, s: trace.Span{ID: uint64(i + 1), Coord: uint64(i%120 + 1), Label: labels[i%len(labels)]}}
		attempts := 1 + (i&3)/3
		for a := 0; a < attempts; a++ {
			tx.begin()
			p.Sleep(sim.Microsecond)
			tx.wire(ClassRead, sim.Microsecond)
			tx.phase(trace.PhaseLock)
			p.Sleep(sim.Duration(i%5) * sim.Microsecond)
			tx.wait(uint64(i), sim.Duration(i%5)*sim.Microsecond)
			if a < attempts-1 {
				tx.fail("lock-fail", false)
				tx.done(false)
				p.Sleep(sim.Microsecond)
				continue
			}
			tx.phase(trace.PhaseLog)
			p.Sleep(sim.Microsecond)
			tx.wire(ClassWrite, sim.Microsecond)
			tx.done(true)
		}
	}
}

// BenchmarkEmit is the recording cost of one charge (a fabric park or
// a wait) to the running transaction's record.
func BenchmarkEmit(b *testing.B) {
	r := NewRecorder(Options{})
	inProc(b, func(p *sim.Proc) {
		tx := newTxn(r, p, 1, 7, 0, "Amalgamate")
		tx.begin()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += 2 {
			tx.wire(ClassCAS, sim.Microsecond)
			tx.wait(9, sim.Microsecond)
		}
	})
}

// BenchmarkTxn is the recording cost of one whole transaction — begin,
// two parks, a wait, commit — its summary entering a ring of the
// default capacity, its first write and wrap-around included.
func BenchmarkTxn(b *testing.B) {
	r := NewRecorder(Options{})
	inProc(b, func(p *sim.Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		syntheticTxns(p, r, b.N)
	})
}

// syntheticRing is a recorder holding 60 000 synthetic transactions'
// summaries (nearly a full default ring) and their exemplars, recorded
// by eight coordinators at once: summaries enter the ring as
// transactions end, which is not the order they began in, so the
// snapshot has its sorting to do.
func syntheticRing(b *testing.B) *Recorder {
	r := NewRecorder(Options{})
	env := sim.NewEnv(1)
	for c := 0; c < 8; c++ {
		env.Spawn("coord", func(p *sim.Proc) {
			p.Sleep(sim.Duration(c) * 300)
			syntheticTxns(p, r, 60000/8)
		})
	}
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	return r
}

func BenchmarkSnapshot(b *testing.B) {
	r := syntheticRing(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := r.Snapshot(); len(s.Txns) != r.ring.Len() {
			b.Fatal("short snapshot")
		}
	}
}

func BenchmarkWriteJSON(b *testing.B) {
	s := syntheticRing(b).Snapshot()
	var doc bytes.Buffer
	if err := WriteJSON(&doc, s); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteJSON(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}
