package flight

import (
	"bytes"
	"testing"

	"crest/internal/sim"
	"crest/internal/trace"
)

func inProc(t testing.TB, fn func(p *sim.Proc)) {
	t.Helper()
	env := sim.NewEnv(1)
	env.Spawn("test", fn)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if r.Shard(0, 4) != nil {
		t.Fatal("nil Shard should stay nil")
	}
	r.SetWarmup(5)
	inProc(t, func(p *sim.Proc) {
		r.Begin(p, 1, 0, "txn", nil)
		r.Phase(p, trace.PhaseLock)
		r.Wire(p, ClassRead, sim.Microsecond)
		r.Wait(p, 2, sim.Microsecond)
		r.Backoff(p, sim.Microsecond)
		r.Fail(p, "lock-fail", false)
		r.Done(p, false)
	})
	snap := r.Snapshot()
	if len(snap.Txns) != 0 || len(snap.Exemplars) != 0 {
		t.Fatal("nil recorder produced data")
	}
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder reports contents")
	}
}

// TestBudgetSumsToElapsed drives one transaction through two attempts
// with wire, wait and backoff charges and checks every component lands
// where it should — and that the budget sums exactly to the elapsed
// virtual time.
func TestBudgetSumsToElapsed(t *testing.T) {
	r := NewRecorder(Options{})
	key := new(int)
	inProc(t, func(p *sim.Proc) {
		// Attempt 1: 2µs exec (1µs wire-read inside), 3µs lock with a
		// 2µs wait, fail, 1µs release cleanup.
		r.Begin(p, 7, 2, "pay", key)
		p.Sleep(sim.Microsecond)
		r.Wire(p, ClassRead, sim.Microsecond)
		p.Sleep(sim.Microsecond) // exec compute
		r.Phase(p, trace.PhaseLock)
		p.Sleep(2 * sim.Microsecond)
		r.Wait(p, 42, 2*sim.Microsecond)
		p.Sleep(sim.Microsecond) // lock compute
		r.Fail(p, "lock-fail", false)
		p.Sleep(sim.Microsecond) // release cleanup after the abort
		r.Done(p, false)

		// 4µs retry backoff gap.
		p.Sleep(4 * sim.Microsecond)

		// Attempt 2: 1µs exec, 1µs validate with a 500ns CAS, commit.
		r.Begin(p, 7, 2, "pay", key)
		p.Sleep(sim.Microsecond)
		r.Phase(p, trace.PhaseValidate)
		p.Sleep(sim.Microsecond)
		r.Wire(p, ClassCAS, 500*sim.Nanosecond)
		r.Done(p, true)
	})
	snap := r.Snapshot()
	if len(snap.Txns) != 1 {
		t.Fatalf("recorded %d txns, want 1", len(snap.Txns))
	}
	tx := &snap.Txns[0]
	if !tx.Committed || tx.Attempts != 2 || tx.Reason != "lock-fail" {
		t.Fatalf("bad summary: %+v", tx)
	}
	if got, want := tx.Total(), tx.End.Sub(tx.Begin); got != want {
		t.Fatalf("budget sums to %v, elapsed %v", got, want)
	}
	want := Budget{}
	want[CompWireRead] = sim.Microsecond
	want[CompExec] = sim.Microsecond + sim.Microsecond // attempt 1 + attempt 2 compute
	want[CompWait] = 2 * sim.Microsecond
	want[CompLock] = sim.Microsecond
	want[CompRelease] = sim.Microsecond
	want[CompBackoff] = 4 * sim.Microsecond
	want[CompValidate] = sim.Microsecond - 500*sim.Nanosecond
	want[CompWireCAS] = 500 * sim.Nanosecond
	if tx.Budget != want {
		t.Fatalf("budget %v, want %v", tx.Budget, want)
	}
	if tx.WaitHolder != 42 || tx.WaitMax != 2*sim.Microsecond {
		t.Fatalf("heaviest wait %v on T%d, want 2µs on T42", tx.WaitMax, tx.WaitHolder)
	}

	// The committed outlier was captured with per-attempt detail.
	ex := snap.Exemplar(tx.ID)
	if ex == nil {
		t.Fatal("transaction not captured as an exemplar")
	}
	if len(ex.Detail) != 2 {
		t.Fatalf("captured %d attempts, want 2", len(ex.Detail))
	}
	a2 := ex.Detail[1]
	if a2.Gap != 4*sim.Microsecond || a2.GapQueue {
		t.Fatalf("attempt 2 gap %v queue=%v, want 4µs backoff", a2.Gap, a2.GapQueue)
	}
	if a2.Outcome != "commit" {
		t.Fatalf("attempt 2 outcome %q", a2.Outcome)
	}
}

// TestQueueVsBackoffGap: an admission-wait abort charges its re-queue
// gap to queue, any other abort to backoff.
func TestQueueVsBackoffGap(t *testing.T) {
	r := NewRecorder(Options{})
	key := new(int)
	inProc(t, func(p *sim.Proc) {
		r.Begin(p, 1, 0, "t", key)
		r.Fail(p, "wait", true)
		r.Done(p, false)
		p.Sleep(3 * sim.Microsecond)
		r.Begin(p, 1, 0, "t", key)
		r.Fail(p, "lock-fail", false)
		r.Done(p, false)
		p.Sleep(5 * sim.Microsecond)
		r.Begin(p, 1, 0, "t", key)
		r.Done(p, true)
	})
	tx := &r.Snapshot().Txns[0]
	if tx.Budget[CompQueue] != 3*sim.Microsecond {
		t.Fatalf("queue %v, want 3µs", tx.Budget[CompQueue])
	}
	if tx.Budget[CompBackoff] != 5*sim.Microsecond {
		t.Fatalf("backoff %v, want 5µs", tx.Budget[CompBackoff])
	}
}

// TestAbandonedTxnFinalizesOnNextBegin: when the harness gives up on a
// transaction (different txnKey begins on the same proc), the old
// record finalizes as aborted; transactions still open at snapshot
// time surface without mutation.
func TestAbandonedTxnFinalizes(t *testing.T) {
	r := NewRecorder(Options{})
	inProc(t, func(p *sim.Proc) {
		r.Begin(p, 1, 0, "a", new(int))
		p.Sleep(sim.Microsecond)
		r.Fail(p, "validation", false)
		r.Done(p, false)
		r.Begin(p, 1, 0, "b", new(int)) // abandons "a"
		p.Sleep(sim.Microsecond)
		// "b" still open at snapshot time.
	})
	snap := r.Snapshot()
	if len(snap.Txns) != 2 {
		t.Fatalf("recorded %d txns, want 2", len(snap.Txns))
	}
	a, b := &snap.Txns[0], &snap.Txns[1]
	if a.Label != "a" || a.Committed || a.Reason != "validation" {
		t.Fatalf("abandoned txn summary: %+v", a)
	}
	if a.Total() != a.End.Sub(a.Begin) {
		t.Fatalf("abandoned budget %v != elapsed %v", a.Total(), a.End.Sub(a.Begin))
	}
	if b.Label != "b" || b.Committed {
		t.Fatalf("open txn summary: %+v", b)
	}
	// Snapshot twice: surfacing open records must not mutate them.
	again := r.Snapshot()
	if len(again.Txns) != 2 || again.Txns[1] != *b {
		t.Fatal("second snapshot differs")
	}
}

// TestWarmupSkipsEarlyTxns: records beginning before the cutoff are
// tracked (retries still resume) but never published.
func TestWarmupSkipsEarlyTxns(t *testing.T) {
	r := NewRecorder(Options{})
	r.SetWarmup(sim.Time(10 * sim.Microsecond))
	inProc(t, func(p *sim.Proc) {
		r.Begin(p, 1, 0, "early", new(int))
		p.Sleep(sim.Microsecond)
		r.Done(p, true)
		p.Sleep(20 * sim.Microsecond)
		r.Begin(p, 1, 0, "late", new(int))
		r.Done(p, true)
	})
	snap := r.Snapshot()
	if len(snap.Txns) != 1 || snap.Txns[0].Label != "late" {
		t.Fatalf("want only the post-warmup txn, got %d", len(snap.Txns))
	}
}

// TestAttemptFoldPastDetailBound: a transaction with more attempts
// than the detail array folds the overflow into the last slot without
// losing budget exactness.
func TestAttemptFoldPastDetailBound(t *testing.T) {
	r := NewRecorder(Options{})
	key := new(int)
	const attempts = maxAttemptDetail + 5
	inProc(t, func(p *sim.Proc) {
		for i := 0; i < attempts; i++ {
			if i > 0 {
				p.Sleep(sim.Microsecond)
			}
			r.Begin(p, 1, 0, "hot", key)
			p.Sleep(2 * sim.Microsecond)
			if i < attempts-1 {
				r.Fail(p, "lock-fail", false)
			}
			r.Done(p, i == attempts-1)
		}
	})
	snap := r.Snapshot()
	tx := &snap.Txns[0]
	if tx.Attempts != attempts {
		t.Fatalf("attempts %d, want %d", tx.Attempts, attempts)
	}
	if tx.Total() != tx.End.Sub(tx.Begin) {
		t.Fatalf("folded budget %v != elapsed %v", tx.Total(), tx.End.Sub(tx.Begin))
	}
	ex := snap.Exemplar(tx.ID)
	if ex == nil {
		t.Fatal("not captured")
	}
	if len(ex.Detail) != maxAttemptDetail {
		t.Fatalf("detail has %d slots, want %d", len(ex.Detail), maxAttemptDetail)
	}
	last := ex.Detail[maxAttemptDetail-1]
	if last.Folded != attempts-maxAttemptDetail {
		t.Fatalf("folded %d, want %d", last.Folded, attempts-maxAttemptDetail)
	}
	if last.Outcome != "commit" {
		t.Fatalf("folded slot outcome %q", last.Outcome)
	}
}

// TestExemplarBucketsKeepTopK: buckets hold the K slowest transactions
// per (shard, dominant component), evicting deterministically.
func TestExemplarBucketsKeepTopK(t *testing.T) {
	r := NewRecorder(Options{ExemplarK: 2})
	inProc(t, func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			r.Begin(p, 1, 0, "t", new(int))
			p.Sleep(sim.Duration(i+1) * sim.Microsecond) // exec compute: 1..6µs
			r.Done(p, true)
		}
	})
	snap := r.Snapshot()
	if len(snap.Txns) != 6 {
		t.Fatalf("%d summaries, want 6", len(snap.Txns))
	}
	if len(snap.Exemplars) != 2 {
		t.Fatalf("%d exemplars, want 2", len(snap.Exemplars))
	}
	if snap.Exemplars[0].Total() != 6*sim.Microsecond ||
		snap.Exemplars[1].Total() != 5*sim.Microsecond {
		t.Fatalf("kept %v and %v, want the two slowest",
			snap.Exemplars[0].Total(), snap.Exemplars[1].Total())
	}
	if snap.Exemplars[0].Bucket != CompExec {
		t.Fatalf("bucket %v, want exec", snap.Exemplars[0].Bucket)
	}
}

// TestShardStridedIDsAndMerge: partition children issue disjoint ids
// and the root snapshot merges deterministically.
func TestShardStridedIDsAndMerge(t *testing.T) {
	root := NewRecorder(Options{})
	c0, c1 := root.Shard(0, 2), root.Shard(1, 2)
	env := sim.NewEnv(1)
	env.Spawn("p0", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			c0.Begin(p, 0, 0, "a", new(int))
			p.Sleep(sim.Microsecond)
			c0.Done(p, true)
		}
	})
	env.Spawn("p1", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			c1.Begin(p, 1, 1, "b", new(int))
			p.Sleep(2 * sim.Microsecond)
			c1.Done(p, true)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	snap := root.Snapshot()
	if len(snap.Txns) != 6 {
		t.Fatalf("merged %d txns, want 6", len(snap.Txns))
	}
	seen := map[uint64]bool{}
	for i := range snap.Txns {
		tx := &snap.Txns[i]
		if seen[tx.ID] {
			t.Fatalf("duplicate id %d after merge", tx.ID)
		}
		seen[tx.ID] = true
		odd := tx.ID%2 == 0 // stride 2: child 0 issues odd ids 1,3,5; child 1 even 2,4,6
		if tx.Shard == 0 && odd {
			t.Fatalf("child 0 issued id %d", tx.ID)
		}
	}
	for i := 1; i < len(snap.Txns); i++ {
		if snap.Txns[i].Begin < snap.Txns[i-1].Begin {
			t.Fatal("merge not ordered by begin time")
		}
	}
}

// TestJSONRoundTripByteEqual: Write → Read → Write reproduces the
// export byte for byte.
// tinySnapshot is one transaction that fails a lock and commits on its
// second attempt.
func tinySnapshot(t testing.TB) *Snapshot {
	r := NewRecorder(Options{})
	key := new(int)
	inProc(t, func(p *sim.Proc) {
		r.Begin(p, 3, 1, "pay", key)
		p.Sleep(sim.Microsecond)
		r.Wire(p, ClassRead, 500*sim.Nanosecond)
		r.Fail(p, "lock-fail", false)
		r.Done(p, false)
		p.Sleep(sim.Microsecond)
		r.Begin(p, 3, 1, "pay", key)
		p.Sleep(sim.Microsecond)
		r.Done(p, true)
	})
	return r.Snapshot()
}

func TestJSONRoundTripByteEqual(t *testing.T) {
	var a bytes.Buffer
	if err := WriteJSON(&a, tinySnapshot(t)); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := WriteJSON(&b, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("JSON export does not round-trip byte-equal")
	}

	if _, err := ReadJSON(bytes.NewReader([]byte(`{"schema":"bogus/v9"}`))); err == nil {
		t.Fatal("bogus schema accepted")
	}
}

// TestEmptySnapshotExports: empty and nil snapshots export cleanly.
func TestEmptySnapshotExports(t *testing.T) {
	var r *Recorder
	var a bytes.Buffer
	if err := WriteJSON(&a, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := WriteJSON(&b, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("empty export does not round-trip")
	}
	if err := WriteTail(&b, r.Snapshot(), 5); err != nil {
		t.Fatal(err)
	}
}

// TestHotPathAllocatesNothingSteadyState is the exemplar hot-path
// guarantee: once the pool, ring and buckets are warm, a full
// begin→fail→retry→commit cycle allocates nothing — live and nil.
func TestHotPathAllocatesNothingSteadyState(t *testing.T) {
	r := NewRecorder(Options{TxnCapacity: 32, ExemplarK: 2})
	key := new(int)
	inProc(t, func(p *sim.Proc) {
		cycle := func(rec *Recorder) {
			rec.Begin(p, 1, 0, "hot", key)
			rec.Phase(p, trace.PhaseLock)
			rec.Wire(p, ClassCAS, sim.Microsecond)
			rec.Wait(p, 9, sim.Microsecond)
			rec.Fail(p, "lock-fail", false)
			rec.Done(p, false)
			rec.Begin(p, 1, 0, "hot", key)
			rec.Phase(p, trace.PhaseLog)
			rec.Wire(p, ClassWrite, sim.Microsecond)
			rec.Backoff(p, sim.Microsecond)
			rec.Done(p, true)
		}
		// Warm-up: fill the ring past capacity and populate the bucket.
		for i := 0; i < 64; i++ {
			cycle(r)
		}
		if allocs := testing.AllocsPerRun(200, func() { cycle(r) }); allocs != 0 {
			t.Errorf("live recorder steady state allocates %.1f/op, want 0", allocs)
		}
		var nilRec *Recorder
		if allocs := testing.AllocsPerRun(200, func() { cycle(nilRec) }); allocs != 0 {
			t.Errorf("nil recorder allocates %.1f/op, want 0", allocs)
		}
	})
	if r.Dropped() == 0 {
		t.Fatal("warm-up never overflowed the ring; the steady-state claim is untested")
	}
}
