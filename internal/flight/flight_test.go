package flight

import (
	"bytes"
	"strings"
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

// txn drives one transaction's attempts through a recorder the way the
// engine does: it holds the span and the record, and keeps the phase
// clock engine.AttemptTimer keeps, handing Done the durations.
type txn struct {
	r    *Recorder
	p    *sim.Proc
	home int
	s    trace.Span
	x    *Record
	mark sim.Time
	dur  [trace.NumPhases]sim.Duration
}

func newTxn(r *Recorder, p *sim.Proc, id, coord uint64, home int, label string) *txn {
	return &txn{r: r, p: p, home: home, s: trace.Span{ID: id, Coord: coord, Label: label}}
}

// begin starts the next attempt: the first opens the record.
func (t *txn) begin() {
	now := t.p.Now()
	t.mark, t.dur, t.s.Phase = now, [trace.NumPhases]sim.Duration{}, trace.PhaseExec
	if t.s.Attempt++; t.s.Attempt == 1 {
		t.x = t.r.Begin(now, &t.s, t.home)
	} else {
		t.r.Retry(now, t.x)
	}
}

// phase charges the time since the last transition to the phase being
// left and enters ph.
func (t *txn) phase(ph trace.Phase) {
	now := t.p.Now()
	t.dur[t.s.Phase] += now.Sub(t.mark)
	t.mark, t.s.Phase = now, ph
}

func (t *txn) wire(class VerbClass, lat sim.Duration) { t.r.Wire(t.x, t.s.Phase, class, lat) }
func (t *txn) wait(holder uint64, d sim.Duration)     { t.r.Wait(t.x, t.s.Phase, holder, d) }
func (t *txn) backoff(d sim.Duration)                 { t.r.Backoff(t.x, t.s.Phase, d) }

func (t *txn) fail(reason string, isWait bool) {
	t.phase(trace.PhaseRelease)
	t.r.Fail(t.x, reason, isWait)
}

func (t *txn) done(committed bool) {
	t.phase(t.s.Phase)
	t.r.Done(t.p.Now(), t.x, &t.dur, committed)
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Shard(0, 4) != nil {
		t.Fatal("nil Shard should stay nil")
	}
	r.SetWarmup(5)
	inProc(t, func(p *sim.Proc) {
		tx := newTxn(r, p, 1, 1, 0, "txn")
		tx.begin()
		tx.phase(trace.PhaseLock)
		tx.wire(ClassRead, sim.Microsecond)
		tx.wait(2, sim.Microsecond)
		tx.backoff(sim.Microsecond)
		tx.fail("lock-fail", false)
		tx.done(false)
		tx.begin()
		r.Abandon(tx.x)
	})
	snap := r.Snapshot()
	if len(snap.Txns) != 0 || len(snap.Exemplars) != 0 || snap.Dropped != 0 {
		t.Fatal("nil recorder produced data")
	}
}

// TestBudgetSumsToElapsed drives one transaction through two attempts
// with wire, wait and backoff charges and checks every component lands
// where it should — and that the budget sums exactly to the elapsed
// virtual time.
func TestBudgetSumsToElapsed(t *testing.T) {
	r := NewRecorder(Options{})
	inProc(t, func(p *sim.Proc) {
		tx := newTxn(r, p, 1, 7, 2, "pay")
		// Attempt 1: 2µs exec (1µs wire-read inside), 3µs lock with a
		// 2µs wait, fail, 1µs release cleanup.
		tx.begin()
		p.Sleep(sim.Microsecond)
		tx.wire(ClassRead, sim.Microsecond)
		p.Sleep(sim.Microsecond) // exec compute
		tx.phase(trace.PhaseLock)
		p.Sleep(2 * sim.Microsecond)
		tx.wait(42, 2*sim.Microsecond)
		p.Sleep(sim.Microsecond) // lock compute
		tx.fail("lock-fail", false)
		p.Sleep(sim.Microsecond) // release cleanup after the abort
		tx.done(false)

		// 4µs retry backoff gap.
		p.Sleep(4 * sim.Microsecond)

		// Attempt 2: 1µs exec, 1µs validate with a 500ns CAS, commit.
		tx.begin()
		p.Sleep(sim.Microsecond)
		tx.phase(trace.PhaseValidate)
		p.Sleep(sim.Microsecond)
		tx.wire(ClassCAS, 500*sim.Nanosecond)
		tx.done(true)
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
	inProc(t, func(p *sim.Proc) {
		tx := newTxn(r, p, 1, 1, 0, "t")
		tx.begin()
		tx.fail("wait", true)
		tx.done(false)
		p.Sleep(3 * sim.Microsecond)
		tx.begin()
		tx.fail("lock-fail", false)
		tx.done(false)
		p.Sleep(5 * sim.Microsecond)
		tx.begin()
		tx.done(true)
	})
	tx := &r.Snapshot().Txns[0]
	if tx.Budget[CompQueue] != 3*sim.Microsecond {
		t.Fatalf("queue %v, want 3µs", tx.Budget[CompQueue])
	}
	if tx.Budget[CompBackoff] != 5*sim.Microsecond {
		t.Fatalf("backoff %v, want 5µs", tx.Budget[CompBackoff])
	}
}

// TestAbandonedTxnFinalizes: when the harness gives up on a
// transaction (a different one begins on the same process), the old
// record finalizes as aborted; transactions still open at snapshot
// time surface without mutation.
func TestAbandonedTxnFinalizes(t *testing.T) {
	r := NewRecorder(Options{})
	inProc(t, func(p *sim.Proc) {
		a := newTxn(r, p, 1, 1, 0, "a")
		a.begin()
		p.Sleep(sim.Microsecond)
		a.fail("validation", false)
		a.done(false)
		r.Abandon(a.x)
		newTxn(r, p, 2, 1, 0, "b").begin()
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
		early := newTxn(r, p, 1, 1, 0, "early")
		early.begin()
		p.Sleep(sim.Microsecond)
		early.done(true)
		p.Sleep(20 * sim.Microsecond)
		late := newTxn(r, p, 2, 1, 0, "late")
		late.begin()
		late.done(true)
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
	const attempts = maxAttemptDetail + 5
	inProc(t, func(p *sim.Proc) {
		tx := newTxn(r, p, 1, 1, 0, "hot")
		for i := 0; i < attempts; i++ {
			if i > 0 {
				p.Sleep(sim.Microsecond)
			}
			tx.begin()
			p.Sleep(2 * sim.Microsecond)
			if i < attempts-1 {
				tx.fail("lock-fail", false)
			}
			tx.done(i == attempts-1)
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

// TestExemplarBucketsKeepTopK: buckets hold the exemplarK slowest
// transactions per (shard, dominant component), evicting
// deterministically.
func TestExemplarBucketsKeepTopK(t *testing.T) {
	r := NewRecorder(Options{})
	inProc(t, func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			tx := newTxn(r, p, uint64(i+1), 1, 0, "t")
			tx.begin()
			p.Sleep(sim.Duration(i+1) * sim.Microsecond) // exec compute: 1..6µs
			tx.done(true)
		}
	})
	snap := r.Snapshot()
	if len(snap.Txns) != 6 {
		t.Fatalf("%d summaries, want 6", len(snap.Txns))
	}
	if len(snap.Exemplars) != exemplarK {
		t.Fatalf("%d exemplars, want %d", len(snap.Exemplars), exemplarK)
	}
	for i, ex := range snap.Exemplars {
		if want := sim.Duration(6-i) * sim.Microsecond; ex.Total() != want {
			t.Fatalf("exemplar %d is %v, want %v: the four slowest, slowest first", i, ex.Total(), want)
		}
	}
	if snap.Exemplars[0].Bucket != CompExec {
		t.Fatalf("bucket %v, want exec", snap.Exemplars[0].Bucket)
	}
}

// WriteTail prints the topN slowest exemplars, and rejects a topN below
// 1 before writing anything.
func TestWriteTailTopN(t *testing.T) {
	r := NewRecorder(Options{})
	inProc(t, func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			tx := newTxn(r, p, uint64(i+1), 1, 0, "t")
			tx.begin()
			p.Sleep(sim.Duration(i+1) * sim.Microsecond)
			tx.done(true)
		}
	})
	snap := r.Snapshot()
	for _, topN := range []int{0, -1} {
		var b bytes.Buffer
		if err := WriteTail(&b, snap, topN); err == nil || b.Len() != 0 {
			t.Errorf("topN %d: error %v after %d bytes, want an error and nothing written", topN, err, b.Len())
		}
	}
	for _, topN := range []int{1, 2, 10} {
		var b bytes.Buffer
		if err := WriteTail(&b, snap, topN); err != nil {
			t.Fatal(err)
		}
		if got, want := strings.Count(b.String(), "└─"), min(topN, exemplarK); got != want {
			t.Errorf("topN %d: %d exemplars printed, want %d", topN, got, want)
		}
	}
}

// TestShardStridedIDsAndMerge: the root snapshot merges the partition
// children deterministically, keeping the ids the engine strides by
// partition.
func TestShardStridedIDsAndMerge(t *testing.T) {
	root := NewRecorder(Options{})
	c0, c1 := root.Shard(0, 2), root.Shard(1, 2)
	env := sim.NewEnv(1)
	env.Spawn("p0", func(p *sim.Proc) {
		for i := uint64(0); i < 3; i++ {
			tx := newTxn(c0, p, 2*i+1, 0, 0, "a")
			tx.begin()
			p.Sleep(sim.Microsecond)
			tx.done(true)
		}
	})
	env.Spawn("p1", func(p *sim.Proc) {
		for i := uint64(0); i < 3; i++ {
			tx := newTxn(c1, p, 2*i+2, 1, 1, "b")
			tx.begin()
			p.Sleep(2 * sim.Microsecond)
			tx.done(true)
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
	inProc(t, func(p *sim.Proc) {
		tx := newTxn(r, p, 1, 3, 1, "pay")
		tx.begin()
		p.Sleep(sim.Microsecond)
		tx.wire(ClassRead, 500*sim.Nanosecond)
		tx.fail("lock-fail", false)
		tx.done(false)
		p.Sleep(sim.Microsecond)
		tx.begin()
		p.Sleep(sim.Microsecond)
		tx.done(true)
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
	r := NewRecorder(Options{TxnCapacity: 32})
	inProc(t, func(p *sim.Proc) {
		tx := newTxn(nil, p, 1, 1, 0, "hot")
		cycle := func(rec *Recorder) {
			tx.r, tx.s.Attempt = rec, 0
			tx.begin()
			tx.phase(trace.PhaseLock)
			tx.wire(ClassCAS, sim.Microsecond)
			tx.wait(9, sim.Microsecond)
			tx.fail("lock-fail", false)
			tx.done(false)
			tx.begin()
			tx.phase(trace.PhaseLog)
			tx.wire(ClassWrite, sim.Microsecond)
			tx.backoff(sim.Microsecond)
			tx.done(true)
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
	if r.Snapshot().Dropped == 0 {
		t.Fatal("warm-up never overflowed the ring; the steady-state claim is untested")
	}
}
