package causality

import (
	"bytes"
	"io"
	"testing"

	"crest/internal/layout"
	"crest/internal/sim"
	"crest/internal/trace"
)

// syntheticTxns records txns transactions shaped like a contended run's:
// each locks and updates two records of a hundred, loses a lock CAS
// and waits locally, and every fourth aborts on a validation failure
// and retries — four edges a transaction, one virtual microsecond apart.
func syntheticTxns(p *sim.Proc, r *Recorder, txns int) {
	labels := [...]string{"Amalgamate", "Balance", "DepositChecking", "SendPayment", "TransactSavings", "WriteCheck"}
	for i := 0; i < txns; i++ {
		key, other := layout.Key(i%97), layout.Key((i+13)%97)
		t := r.Begin(p.Now(), &trace.Span{Coord: uint64(i%120 + 1), ID: uint64(i + 1), Label: labels[i%len(labels)], Attempt: 1})
		r.LockFail(p.Now(), t, 2, other, 0b1)
		r.LocalWait(p.Now(), t, 2, key, t.ID-1, 3*sim.Microsecond)
		if i&3 == 3 {
			r.ValidationFail(p.Now(), t, 2, other, 0b10, uint64(i))
			r.Abort(p.Now(), t, "validation")
			r.Retry(t)
		}
		r.DependencyWait(p.Now(), t, t.ID-1, sim.Microsecond)
		r.OnLock(t, 2, key, 0b11)
		r.OnUpdate(t.ID, 2, key, uint64(i+1), 0b11)
		r.OnUnlock(2, key, 0b11)
		r.Commit(p.Now(), t)
		p.Sleep(sim.Microsecond)
	}
}

// BenchmarkEmit is the recording cost of one edge into a ring of the
// default capacity, its first write and wrap-around included.
func BenchmarkEmit(b *testing.B) {
	r := NewRecorder(Options{})
	inProc(b, func(p *sim.Proc) {
		t := r.Begin(p.Now(), &trace.Span{Coord: 7, ID: 1, Label: "Amalgamate", Attempt: 1})
		r.OnLock(t, 2, 9, 0b1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += 2 {
			r.LockFail(p.Now(), t, 2, 9, 0b1)
			r.LocalWait(p.Now(), t, 2, 9, 3, sim.Microsecond)
		}
	})
}

// syntheticRing is a recorder holding 60 000 synthetic transactions and
// their edges (about 255 000: nearly a full default ring).
func syntheticRing(b *testing.B) *Recorder {
	r := NewRecorder(Options{})
	inProc(b, func(p *sim.Proc) { syntheticTxns(p, r, 60000) })
	return r
}

func BenchmarkSnapshot(b *testing.B) {
	r := syntheticRing(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := r.Snapshot(); len(s.Edges) != r.Len() {
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
