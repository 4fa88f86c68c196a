package trace

import (
	"bytes"
	"testing"

	"crest/internal/sim"
)

// The merged snapshot interleaves the partition streams by virtual
// time with partition order breaking ties — the same order the window
// executor's mailbox merge imposes on cross-partition messages — and
// keeps the span IDs the engine strides per partition, so no
// renumbering happens at merge time.
func TestShardMergeOrdersByTimeThenPartition(t *testing.T) {
	r := NewRecorder(64)
	s0, s1 := r.Shard(0, 2), r.Shard(1, 2)
	inProc(t, func(p *sim.Proc) {
		// Partition 1 emits first at every timestamp; the merge must
		// still put partition 0's events first within each tick.
		for i := uint64(0); i < 3; i++ {
			sp1 := &Span{Coord: 200, ID: 2*i + 2, Label: "b", Attempt: 1}
			sp0 := &Span{Coord: 100, ID: 2*i + 1, Label: "a", Attempt: 1}
			s1.Begin(p.Now(), sp1)
			s0.Begin(p.Now(), sp0)
			s1.Commit(p.Now(), sp1)
			s0.Commit(p.Now(), sp0)
			p.Sleep(sim.Microsecond)
		}
	})
	snap := r.Snapshot()
	if len(snap.Events) != 18 {
		t.Fatalf("merged snapshot has %d events, want 18", len(snap.Events))
	}
	ids := map[uint64]bool{}
	for i := range snap.Events {
		e := &snap.Events[i]
		if i > 0 && e.At < snap.Events[i-1].At {
			t.Fatalf("merged events not time-ordered at %d: %v after %v", i, e.At, snap.Events[i-1].At)
		}
		if e.Kind == KindTxnBegin {
			if ids[e.Span] {
				t.Fatalf("span id %d not globally unique after the merge", e.Span)
			}
			ids[e.Span] = true
		}
	}
	// Within one timestamp all of partition 0 precedes partition 1:
	// strided span ids are odd on partition 0 (1, 3, 5, ...) and even
	// on partition 1.
	for i := 0; i < 18; i += 6 {
		tick := snap.Events[i : i+6]
		for j, want := range []uint64{1, 1, 1, 0, 0, 0} {
			if got := tick[j].Span % 2; got != want {
				t.Fatalf("tick %d position %d: span %d from wrong partition", i/6, j, tick[j].Span)
			}
		}
	}
}

// Two identical sharded runs export byte-identical Chrome traces.
func TestShardMergeDeterministic(t *testing.T) {
	build := func() *Snapshot {
		r := NewRecorder(128)
		s0, s1 := r.Shard(0, 2), r.Shard(1, 2)
		inProc(t, func(p *sim.Proc) {
			for i := uint64(0); i < 5; i++ {
				sp0 := &Span{Coord: 1, ID: 2*i + 1, Label: "a", Attempt: 1}
				sp1 := &Span{Coord: 2, ID: 2*i + 2, Label: "b", Attempt: 1}
				s0.Begin(p.Now(), sp0)
				s1.Begin(p.Now(), sp1)
				s0.LockAcquire(p.Now(), sp0, 1, 2, 0b1)
				s1.Abort(p.Now(), sp1, "lock-conflict", false)
				s0.Commit(p.Now(), sp0)
				p.Sleep(sim.Microsecond)
			}
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
		t.Fatal("identical sharded runs exported different traces")
	}
}

// The shard child's emit path is the recorder hot path of a partitioned
// run; once its ring is warm it must not allocate.
func TestShardHotPathZeroAlloc(t *testing.T) {
	r := NewRecorder(32)
	s := r.Shard(0, 2)
	inProc(t, func(p *sim.Proc) {
		sp := &Span{Coord: 1, ID: 1, Label: "warm", Attempt: 1}
		s.Begin(p.Now(), sp)
		for i := 0; i < 64; i++ {
			s.LockAcquire(p.Now(), sp, 1, 7, 0b1)
		}
		if avg := testing.AllocsPerRun(200, func() {
			s.LockAcquire(p.Now(), sp, 1, 7, 0b1)
			s.LockRelease(p.Now(), sp, 1, 7, 0b1)
			s.Conflict(p.Now(), sp, 1, 7, 0b1)
		}); avg != 0 {
			t.Errorf("sharded emit path allocates %v/op, want 0", avg)
		}
	})
}
