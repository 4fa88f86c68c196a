package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// ringWorld builds a world of parts partitions where each partition
// runs procs processes that alternate local jittered sleeps with
// cross-partition sends to the next partition (delivery lookahead
// ahead), bumping a per-partition counter on delivery. It exercises
// local scheduling, the outbox path, and barrier injection together.
func ringWorld(seed int64, parts, procs, rounds int, lookahead Duration) (*World, []int) {
	w := NewWorld(seed, parts, lookahead)
	counters := make([]int, parts)
	for pi := 0; pi < parts; pi++ {
		pi := pi
		src := w.Env(pi)
		dst := w.Env((pi + 1) % parts)
		for j := 0; j < procs; j++ {
			src.Spawn(fmt.Sprintf("p%d/%d", pi, j), func(p *Proc) {
				for r := 0; r < rounds; r++ {
					p.Sleep(Duration(p.Rand().Int63n(int64(lookahead))))
					tgt := (pi + 1) % parts
					src.Send(dst, p.Now().Add(lookahead), func() { counters[tgt]++ })
					p.Sleep(lookahead / 2)
				}
			})
		}
	}
	return w, counters
}

// logDispatches hooks every partition of w and returns a function that
// renders what was dispatched since: one line per event (partition,
// time, sequence number, process name), partition by partition.
func logDispatches(w *World) func() string {
	logs := make([]strings.Builder, w.Parts())
	for i := range logs {
		w.Env(i).dispatchHook = func(at Time, seq uint64, p *Proc) {
			name := "call"
			if p != nil {
				name = p.name
			}
			fmt.Fprintf(&logs[i], "%d@%d/%d:%s\n", i, int64(at), seq, name)
		}
	}
	return func() string {
		var all strings.Builder
		for i := range logs {
			all.WriteString(logs[i].String())
		}
		return all.String()
	}
}

// TestWorldByteIdenticalAcrossWorkers is the sim-level half of the
// determinism contract: the complete dispatch sequence of every
// partition — times, sequence numbers and process names — must be
// identical for any worker count.
func TestWorldByteIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) (string, []int, uint64) {
		w, counters := ringWorld(7, 4, 3, 40, 2*Microsecond)
		log := logDispatches(w)
		w.SetWorkers(workers)
		if err := w.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return log(), counters, w.Dispatched()
	}
	base, baseCounters, baseEvents := run(1)
	if baseEvents == 0 {
		t.Fatal("no events dispatched")
	}
	for _, workers := range []int{2, 8} {
		got, counters, events := run(workers)
		if got != base {
			t.Fatalf("workers=%d dispatch sequence differs from workers=1", workers)
		}
		if events != baseEvents {
			t.Fatalf("workers=%d dispatched %d events, workers=1 dispatched %d", workers, events, baseEvents)
		}
		for i := range counters {
			if counters[i] != baseCounters[i] {
				t.Fatalf("workers=%d counter[%d]=%d, want %d", workers, i, counters[i], baseCounters[i])
			}
		}
	}
}

// TestWorldMatchesSingleEnvWhenOnePartition pins the degenerate case:
// a one-partition world is the sequential scheduler bit-for-bit.
func TestWorldMatchesSingleEnvWhenOnePartition(t *testing.T) {
	trace := func(spawn func(*Env)) string {
		var sb strings.Builder
		e := NewEnv(3)
		e.dispatchHook = func(at Time, seq uint64, p *Proc) {
			fmt.Fprintf(&sb, "%d/%d\n", int64(at), seq)
		}
		spawn(e)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	workload := func(e *Env) {
		for j := 0; j < 5; j++ {
			e.Spawn(fmt.Sprintf("p%d", j), func(p *Proc) {
				for r := 0; r < 20; r++ {
					p.Sleep(Duration(p.Rand().Int63n(900)))
				}
			})
		}
	}
	want := trace(workload)

	var sb strings.Builder
	w := NewWorld(3, 1, Microsecond)
	w.Env(0).dispatchHook = func(at Time, seq uint64, p *Proc) {
		fmt.Fprintf(&sb, "%d/%d\n", int64(at), seq)
	}
	workload(w.Env(0))
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Fatal("one-partition world diverged from the sequential scheduler")
	}
}

// TestWorldSendLookaheadViolationPanics pins the safety net: a
// cross-partition send inside the current window is a protocol bug and
// must fail loudly, not silently reorder.
func TestWorldSendLookaheadViolationPanics(t *testing.T) {
	w := NewWorld(1, 2, 10*Microsecond)
	w.Env(0).Spawn("bad", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Send inside the window did not panic")
			}
		}()
		w.Env(0).Send(w.Env(1), p.Now(), func() {})
	})
	_ = w.Run()
}

// TestWorldDeadlock verifies the global deadlock check fires only when
// no partition can make progress.
func TestWorldDeadlock(t *testing.T) {
	w := NewWorld(1, 2, Microsecond)
	w.Env(0).Spawn("stuck", func(p *Proc) { p.Suspend() })
	err := w.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want world deadlock error, got %v", err)
	}
}

// TestWorldCrossPartitionFailurePropagates verifies a panic in any
// partition surfaces as the run's error, and deterministically so (the
// lowest-numbered failing partition wins).
func TestWorldFailurePropagates(t *testing.T) {
	w := NewWorld(1, 2, Microsecond)
	w.Env(1).Spawn("boom", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("kaboom")
	})
	w.Env(0).Spawn("fine", func(p *Proc) { p.Sleep(5 * Microsecond) })
	err := w.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("want propagated panic, got %v", err)
	}
}

// workerID names the goroutine it is called on: the number in the
// first line of its stack trace.
func workerID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestWorldProcessesMigrateBetweenWorkers: a parked process is resumed
// by whichever worker claims its partition in that window, so over a
// run its coroutine is switched into from several goroutines. The
// dispatch sequence must not depend on it. A per-window call in every
// partition records the claiming worker; in window k partition k mod
// parts also stalls its worker for a moment of real time. Each worker
// owns two or more partitions, so the stall leaves one of its own
// unclaimed for another worker to take, at any GOMAXPROCS.
func TestWorldProcessesMigrateBetweenWorkers(t *testing.T) {
	const parts, windows = 8, 60
	lookahead := 2 * Microsecond
	run := func(workers int) (string, int) {
		w, _ := ringWorld(7, parts, 3, windows/2, lookahead)
		log := logDispatches(w)
		seen := make([]map[string]bool, parts)
		for i := 0; i < parts; i++ {
			i, e := i, w.Env(i)
			seen[i] = map[string]bool{}
			for k := 0; k < windows; k++ {
				stall := k%parts == i
				e.CallAt(Time(k)*Time(lookahead), func() {
					seen[i][workerID()] = true
					if stall {
						time.Sleep(20 * time.Microsecond)
					}
				})
			}
		}
		w.SetWorkers(workers)
		if err := w.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		migrated := 0
		for _, workers := range seen {
			if len(workers) > 1 {
				migrated++
			}
		}
		return log(), migrated
	}
	base, migrated := run(1)
	if migrated != 0 {
		t.Fatalf("workers=1: %d partitions saw more than one worker", migrated)
	}
	for _, workers := range []int{2, 4} {
		got, migrated := run(workers)
		if got != base {
			t.Errorf("workers=%d dispatch sequence differs from workers=1", workers)
		}
		if migrated == 0 {
			t.Errorf("workers=%d: every partition stayed on one worker; nothing migrated", workers)
		}
	}
}

// TestMailboxZeroAlloc is the AllocsPerRun guard for the
// cross-partition mailbox hot path: once the outboxes, gather buffers
// and heaps are warm, a full window cycle — enqueue via Send, merge,
// sort, and heap injection — must allocate nothing, at one worker and
// with the pool: its state lives in the World, and the helpers it
// spawns on each RunUntil reuse exited goroutines.
func TestMailboxZeroAlloc(t *testing.T) {
	for _, workers := range []int{1, 2} {
		w := NewWorld(11, 2, 2*Microsecond)
		w.SetWorkers(workers)
		a, b := w.Env(0), w.Env(1)
		hits := 0
		onDeliver := func() { hits++ }
		a.Spawn("sender", func(p *Proc) {
			for {
				for i := 0; i < 8; i++ {
					a.Send(b, p.Now().Add(2*Microsecond), onDeliver)
				}
				p.Sleep(2 * Microsecond)
			}
		})
		deadline := Time(0)
		step := func() {
			deadline = deadline.Add(20 * Microsecond)
			if err := w.RunUntil(deadline); err != nil {
				t.Fatal(err)
			}
		}
		// Warm-up: grow the outbox, gather buffer and heap to steady state.
		for i := 0; i < 4; i++ {
			step()
		}
		allocs := testing.AllocsPerRun(10, step)
		if allocs != 0 {
			t.Fatalf("workers=%d: mailbox window cycle allocates %v times per run, want 0", workers, allocs)
		}
		if hits == 0 {
			t.Fatalf("workers=%d: no messages delivered", workers)
		}
	}
}

// TestWorldPoolLifecycle runs a world in many short RunUntil slices
// whose deadlines cut windows short while mail is in flight across
// every cut. Each slice starts and joins a pool, so a helper of one
// slice must never run in the next: the sliced run must dispatch what
// one Run at workers 1 does, event by event, and leave no goroutine
// behind — after each slice and after a process panic ends a slice
// early.
// Mail lands at odd instants and processes wake at even ones, so a
// cut, which merges mail earlier than a full window would, moves
// sequence numbers but never the order of two events.
func TestWorldPoolLifecycle(t *testing.T) {
	const parts, L = 4, 2 * Microsecond
	build := func(seed int64) (*World, func() string) {
		w := NewWorld(seed, parts, L)
		logs := make([]strings.Builder, parts)
		for i := 0; i < parts; i++ {
			src, dst := w.Env(i), w.Env((i+1)%parts)
			src.dispatchHook = func(at Time, _ uint64, p *Proc) {
				name := "mail"
				if p != nil {
					name = p.name
				}
				fmt.Fprintf(&logs[i], "%d@%d:%s\n", i, int64(at), name)
			}
			for j := 0; j < 3; j++ {
				src.Spawn(fmt.Sprintf("p%d/%d", i, j), func(p *Proc) {
					for r := 0; r < 40; r++ {
						p.Sleep(2 * Duration(1+p.Rand().Int63n(int64(L))))
						src.Send(dst, p.Now().Add(L+1), func() {})
					}
				})
			}
		}
		return w, func() string {
			var all strings.Builder
			for i := range logs {
				all.WriteString(logs[i].String())
			}
			return all.String()
		}
	}
	// Live processes hold a coroutine each; a panic abandons theirs, so
	// every world is counted from its own baseline. A joined helper may
	// still be returning from its last unlock, so the count gets a
	// moment to settle.
	var base int
	live := func(w *World) int {
		n := 0
		for _, e := range w.envs {
			n += e.live
		}
		return n
	}
	leaked := func(w *World) int {
		n := 0
		for end := time.Now().Add(time.Second); time.Now().Before(end); runtime.Gosched() {
			if n = runtime.NumGoroutine() - base - live(w); n == 0 {
				break
			}
		}
		return n
	}
	mailQueued := func(w *World) bool {
		for _, e := range w.envs {
			for _, ev := range e.events {
				if ev.fn != nil {
					return true
				}
			}
		}
		return false
	}

	whole, wholeLog := build(3)
	if err := whole.Run(); err != nil {
		t.Fatal(err)
	}
	want := wholeLog()
	for _, workers := range []int{2, 4} {
		base = runtime.NumGoroutine()
		w, log := build(3)
		w.SetWorkers(workers)
		slices, cutMail := 0, 0
		for deadline := Time(0); live(w) > 0; slices++ {
			deadline = deadline.Add(L*3/2 + 7)
			if err := w.RunUntil(deadline); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if n := leaked(w); n != 0 {
				t.Fatalf("workers=%d: %d goroutines left after slice %d", workers, n, slices)
			}
			if mailQueued(w) {
				cutMail++
			}
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if got := log(); got != want {
			t.Errorf("workers=%d: %d slices dispatch differently from one Run at workers=1", workers, slices)
		}
		if cutMail < slices*3/4 {
			t.Errorf("workers=%d: mail in flight at %d of %d cuts", workers, cutMail, slices)
		}

		// A panic ends RunUntil early, well before its deadline, with
		// the other partitions' processes still live.
		base = runtime.NumGoroutine()
		w, _ = build(5)
		w.SetWorkers(workers)
		w.Env(1).Spawn("boom", func(p *Proc) {
			p.Sleep(5 * L)
			panic("kaboom")
		})
		if err := w.RunUntil(Time(1000 * L)); err == nil || !strings.Contains(err.Error(), "kaboom") || live(w) == 0 {
			t.Fatalf("workers=%d: want the panic with processes left, got %v and %d live", workers, err, live(w))
		}
		if n := leaked(w); n != 0 {
			t.Fatalf("workers=%d: %d goroutines left after a panic", workers, n)
		}
	}
}

// BenchmarkMailbox measures the cross-partition enqueue/drain path:
// one sender posting batches of deferred calls to the peer partition,
// windows advancing at the lookahead cadence.
func BenchmarkMailbox(bm *testing.B) {
	w := NewWorld(11, 2, 2*Microsecond)
	a, b := w.Env(0), w.Env(1)
	sink := 0
	onDeliver := func() { sink++ }
	a.Spawn("sender", func(p *Proc) {
		for {
			for i := 0; i < 8; i++ {
				a.Send(b, p.Now().Add(2*Microsecond), onDeliver)
			}
			p.Sleep(2 * Microsecond)
		}
	})
	deadline := Time(0)
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		deadline = deadline.Add(2 * Microsecond)
		if err := w.RunUntil(deadline); err != nil {
			bm.Fatal(err)
		}
	}
	_ = sink
}
