package causality

import (
	"bytes"
	"testing"

	"crest/internal/sim"
	"crest/internal/trace"
)

// The merged snapshot interleaves the partition edge streams by
// (virtual time, partition) and keeps the strided per-partition edge
// seqs, so CauseSeq references recorded inside a partition stay valid
// after the merge without renumbering.
func TestShardMergeKeepsStridedSeqs(t *testing.T) {
	r := NewRecorder(Options{Capacity: 64})
	s0, s1 := r.Shard(0, 2), r.Shard(1, 2)
	inProc(t, func(p *sim.Proc) {
		for i := uint64(0); i < 3; i++ {
			t1 := s1.Begin(p.Now(), &trace.Span{Coord: 200, ID: 2*i + 2, Label: "b", Attempt: 1})
			t0 := s0.Begin(p.Now(), &trace.Span{Coord: 100, ID: 2*i + 1, Label: "a", Attempt: 1})
			s1.LockFail(p.Now(), t1, 1, 7, 0b1, 0)
			s1.Abort(p.Now(), t1, "lock-conflict")
			s0.LockFail(p.Now(), t0, 1, 8, 0b1, 0)
			s0.Abort(p.Now(), t0, "lock-conflict")
			p.Sleep(sim.Microsecond)
		}
	})
	snap := r.Snapshot()
	if len(snap.Edges) != 6 {
		t.Fatalf("merged edges = %d, want 6", len(snap.Edges))
	}
	seen := map[uint64]bool{}
	for i, e := range snap.Edges {
		if i > 0 && e.At < snap.Edges[i-1].At {
			t.Fatalf("merged edges not time-ordered at %d", i)
		}
		if seen[e.Seq] {
			t.Fatalf("edge seq %d not globally unique after the merge", e.Seq)
		}
		seen[e.Seq] = true
	}
	// Within one tick partition 0 sorts first; strided seqs are odd on
	// partition 0 and even on partition 1.
	for i := 0; i < 6; i += 2 {
		if snap.Edges[i].Seq%2 != 1 || snap.Edges[i+1].Seq%2 != 0 {
			t.Fatalf("tick %d: partition order wrong: seqs %d, %d",
				i/2, snap.Edges[i].Seq, snap.Edges[i+1].Seq)
		}
	}
	// The merged txn table holds all 6.
	if len(snap.Txns) != 6 {
		t.Fatalf("merged txns = %d, want 6", len(snap.Txns))
	}
}

// Two identical sharded runs export byte-identical crest-why documents.
func TestShardMergeDeterministic(t *testing.T) {
	build := func() *Snapshot {
		r := NewRecorder(Options{Capacity: 64})
		s0, s1 := r.Shard(0, 2), r.Shard(1, 2)
		inProc(t, func(p *sim.Proc) {
			for i := uint64(0); i < 4; i++ {
				t0 := s0.Begin(p.Now(), &trace.Span{Coord: 100, ID: 2*i + 1, Label: "a", Attempt: 1})
				t1 := s1.Begin(p.Now(), &trace.Span{Coord: 200, ID: 2*i + 2, Label: "b", Attempt: 1})
				s1.LockFail(p.Now(), t1, 1, 7, 0b1, 0)
				s1.Abort(p.Now(), t1, "lock-conflict")
				s0.Commit(p.Now(), t0)
				p.Sleep(sim.Microsecond)
			}
		})
		return r.Snapshot()
	}
	var a, b bytes.Buffer
	if err := WriteJSON(&a, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical sharded runs exported different documents")
	}
}

// The shard child's edge path is the recorder hot path of a partitioned
// run; once its rings are warm it must not allocate.
func TestShardEdgePathZeroAlloc(t *testing.T) {
	r := NewRecorder(Options{Capacity: 64})
	s := r.Shard(0, 2)
	inProc(t, func(p *sim.Proc) {
		tx := s.Begin(p.Now(), &trace.Span{Coord: 1, ID: 1, Label: "warm", Attempt: 1})
		for i := 0; i < 80; i++ {
			s.LockFail(p.Now(), tx, 1, 7, 0b1, 3)
		}
		if avg := testing.AllocsPerRun(200, func() {
			s.LockFail(p.Now(), tx, 1, 7, 0b1, 3)
			s.LocalWait(p.Now(), tx, 1, 7, 3, sim.Microsecond)
		}); avg != 0 {
			t.Errorf("sharded edge path allocates %v/op, want 0", avg)
		}
	})
}
