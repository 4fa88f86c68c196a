package trace

import (
	"bytes"
	"slices"
	"testing"

	"crest/internal/rdma"
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
	if r.Len() != 18 {
		t.Fatalf("merged length = %d, want 18", r.Len())
	}
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

// Hot-cell profiles fold across partitions: the same cell bumped on two
// shards reports summed conflict counts.
func TestShardHotProfileFolds(t *testing.T) {
	r := NewRecorder(64)
	s0, s1 := r.Shard(0, 2), r.Shard(1, 2)
	inProc(t, func(p *sim.Proc) {
		sp0 := &Span{Coord: 1, ID: 1, Label: "a", Attempt: 1}
		sp1 := &Span{Coord: 2, ID: 2, Label: "b", Attempt: 1}
		s0.Begin(p.Now(), sp0)
		s1.Begin(p.Now(), sp1)
		s0.Conflict(p.Now(), sp0, 1, 7, 0b1)
		s0.Conflict(p.Now(), sp0, 1, 7, 0b1)
		s1.Conflict(p.Now(), sp1, 1, 7, 0b1)
	})
	snap := r.Snapshot()
	var found bool
	for _, h := range snap.Hot {
		if h.Table == 1 && h.Key == 7 {
			found = true
			if h.Conflicts != 3 {
				t.Fatalf("folded conflicts = %d, want 3", h.Conflicts)
			}
		}
	}
	if !found {
		t.Fatal("hot cell missing from the merged profile")
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

// A verb event names its verb through Snapshot.Verb: each rdma.OpKind
// is resolved to a code once, on its first use, and the codes of a
// sharded family's members — each in its own first-use order — are
// rewritten into one table as the merge writes their events.
func TestVerbNamesSurviveCodesAndMerge(t *testing.T) {
	ops := []rdma.OpKind{rdma.OpWrite, rdma.OpRead, rdma.OpWrite, rdma.OpMaskedCAS, rdma.OpCAS, rdma.OpRead}
	verbs := func(s *Snapshot) []string {
		var out []string
		for i := range s.Events {
			if e := &s.Events[i]; e.Kind == KindVerbIssue {
				out = append(out, s.Verb(e))
			}
		}
		return out
	}
	want := make([]string, len(ops))
	for i, op := range ops {
		want[i] = op.String()
	}
	r := NewRecorder(64)
	s := &Span{Coord: 1, ID: 1, Label: "t", Attempt: 1}
	for i, op := range ops {
		r.VerbIssue(sim.Time(i), s, op, 1, 0, 8)
	}
	snap := r.Snapshot()
	if got := verbs(snap); !slices.Equal(got, want) {
		t.Errorf("unsharded verbs %v, want %v", got, want)
	}
	if snap.Verb(&snap.Events[0]) != "WRITE" || snap.Events[0].Verb != 1 || snap.Events[1].Verb != 2 {
		t.Errorf("codes are not in first-use order: WRITE %d, READ %d", snap.Events[0].Verb, snap.Events[1].Verb)
	}

	// Partition 1 meets the verbs in reverse order.
	r = NewRecorder(64)
	for part := 0; part < 2; part++ {
		for i := range ops {
			j := i
			if part == 1 {
				j = len(ops) - 1 - i
			}
			r.Shard(part, 2).VerbIssue(sim.Time(j), s, ops[j], 1, 0, 8)
		}
	}
	var both []string
	for i := range ops {
		both = append(both, want[i], want[i]) // one per partition at each instant
	}
	if got := verbs(r.Snapshot()); !slices.Equal(got, both) {
		t.Errorf("merged verbs %v, want %v", got, both)
	}
}
