package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockAdvances(t *testing.T) {
	e := NewEnv(1)
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		woke = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(5*Microsecond) {
		t.Fatalf("woke at %v, want 5µs", woke)
	}
	if e.Now() != Time(5*Microsecond) {
		t.Fatalf("env now %v, want 5µs", e.Now())
	}
}

func TestSleepOrdering(t *testing.T) {
	e := NewEnv(1)
	var order []string
	e.Spawn("b", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		order = append(order, "b")
	})
	e.Spawn("a", func(p *Proc) {
		p.Sleep(1 * Microsecond)
		order = append(order, "a")
	})
	e.Spawn("c", func(p *Proc) {
		p.Sleep(2 * Microsecond) // same time as b; b spawned first so runs first
		order = append(order, "c")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestSpawnTieBreakIsSpawnOrder(t *testing.T) {
	e := NewEnv(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Spawn("p", func(p *Proc) { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v not spawn order", order)
		}
	}
}

func TestYieldInterleaves(t *testing.T) {
	e := NewEnv(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
		p.Sleep(0)
		order = append(order, "b2")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2", "b2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestWaitQueueFIFO(t *testing.T) {
	e := NewEnv(1)
	q := NewWaitQueue("test")
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			q.Wait(p)
			order = append(order, i)
		})
	}
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(Microsecond)
		if n := q.Wake(1); n != 1 {
			t.Errorf("Wake(1) released %d", n)
		}
		p.Sleep(Microsecond)
		q.WakeAll()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("wake order %v not FIFO", order)
		}
	}
}

// TestResetKeepsTheArray: a reset queue keeps the array its waiters
// grew, holding none of them, and a reset refuses a queue or mutex that
// someone still waits on or holds.
func TestResetKeepsTheArray(t *testing.T) {
	e := NewEnv(1)
	q := NewWaitQueue("q")
	var m Mutex
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) { q.Wait(p) })
	}
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(Microsecond)
		q.WakeAll()
		m.Lock(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	grown := cap(q.ps)
	q.Reset()
	if len(q.ps) != 0 || cap(q.ps) != grown || grown < 3 {
		t.Fatalf("reset queue: %d parked, capacity %d, was %d", len(q.ps), cap(q.ps), grown)
	}
	for i, p := range q.ps[:cap(q.ps)] {
		if p != nil {
			t.Fatalf("reset queue still holds woken process %d", i)
		}
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Reset of %s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("a held mutex", m.Reset)
	stuck := NewEnv(1)
	stuck.Spawn("stuck", func(p *Proc) { q.Wait(p) })
	if stuck.Run() == nil {
		t.Fatal("a process parked for good did not deadlock the run")
	}
	mustPanic("a queue with a parked process", q.Reset)
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEnv(1)
	q := NewWaitQueue("never")
	e.Spawn("stuck", func(p *Proc) { q.Wait(p) })
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

// kaboom panics two frames below the process function, after a park,
// so the captured stack has to be the process's own.
func kaboom(p *Proc) {
	p.Sleep(Microsecond)
	panic("kaboom")
}

// TestPanicPropagates: a panic inside a process ends that process
// only. Run reports it with the process name and the panicking stack,
// and the environment stays consistent: the process counts as
// finished, its shell is back in the pool, and a later Run neither
// hangs nor loses the error.
func TestPanicPropagates(t *testing.T) {
	e := NewEnv(1)
	e.Spawn("boom", kaboom)
	bystander := 0
	e.Spawn("bystander", func(p *Proc) {
		for ; bystander < 3; bystander++ {
			p.Sleep(Microsecond)
		}
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected panic to surface as error")
	}
	for _, want := range []string{`process "boom" panicked: kaboom`, "sim.kaboom("} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error misses %q:\n%v", want, err)
		}
	}
	if e.Live() != 1 || len(e.free) != 1 {
		t.Fatalf("after the panic: %d live, %d pooled shells; want 1 and 1", e.Live(), len(e.free))
	}
	// The failure is sticky, but each further Run still dispatches: the
	// bystander makes progress and finishes.
	for i := 0; i < 8 && e.Live() > 0; i++ {
		if again := e.Run(); again == nil || again.Error() != err.Error() {
			t.Fatalf("Run %d after the panic returned %v", i, again)
		}
	}
	if e.Live() != 0 || bystander != 3 {
		t.Fatalf("bystander stuck: live=%d, progress=%d", e.Live(), bystander)
	}
}

// TestSpawnFromProcessAndCallAt: a coroutine can be created while
// another is running, and from the scheduler's own context between
// dispatches; both start at the requested instant in schedule order.
func TestSpawnFromProcessAndCallAt(t *testing.T) {
	e := NewEnv(1)
	var order []string
	mark := func(s string) func(*Proc) {
		return func(p *Proc) { order = append(order, fmt.Sprintf("%s@%d", s, p.Now())) }
	}
	e.Spawn("parent", func(p *Proc) {
		e.Spawn("child", func(c *Proc) {
			mark("child")(c)
			e.Spawn("grandchild", mark("grandchild"))
			c.Sleep(Microsecond)
			mark("child-resumed")(c)
		})
		e.Spawn("late", func(l *Proc) {
			l.Sleep(3 * Microsecond)
			mark("late")(l)
		})
		mark("parent")(p)
	})
	e.CallAt(Time(2*Microsecond), func() { e.Spawn("from-call", mark("from-call")) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "parent@0 child@0 grandchild@0 child-resumed@1000 from-call@2000 late@3000"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
	if e.Live() != 0 {
		t.Fatalf("%d processes still live", e.Live())
	}
}

// TestStaleEventNeverWakesReusedShell pins the gen guard: a wake event
// queued for a process that finishes before the event fires must not
// dispatch the next process to reuse its shell.
func TestStaleEventNeverWakesReusedShell(t *testing.T) {
	e := NewEnv(1)
	var first *Proc
	first = e.Spawn("first", func(p *Proc) {
		// Leave a wakeup for this incarnation queued at 5µs, then
		// finish without consuming it.
		e.schedule(p, Time(5*Microsecond))
	})
	var trace []string
	e.CallAt(Time(Microsecond), func() {
		second := e.Spawn("second", func(p *Proc) {
			trace = append(trace, fmt.Sprintf("start@%d", p.Now()))
			p.Sleep(10 * Microsecond)
			trace = append(trace, fmt.Sprintf("woke@%d", p.Now()))
		})
		if second != first {
			t.Errorf("second spawn did not reuse the finished shell")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(trace, " "); got != "start@1000 woke@11000" {
		t.Fatalf("reused shell ran %q: the stale 5µs event woke it", got)
	}
}

// TestNoGoroutineLeftAfterRun: a process that returns ends its
// coroutine, so once every process has finished the runtime is back to
// the goroutines it had before the first Spawn. (Comparisons are
// one-sided because a helper goroutine of an earlier World test may
// still be exiting.)
func TestNoGoroutineLeftAfterRun(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv(1)
	m := NewMutex("m")
	for i := 0; i < 50; i++ {
		e.Spawn("p", func(p *Proc) {
			p.Sleep(Duration(p.Rand().Int63n(100)))
			m.Lock(p)
			p.Sleep(Microsecond)
			m.Unlock()
			e.Spawn("child", func(c *Proc) { c.Sleep(0) })
		})
	}
	spawned := runtime.NumGoroutine()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	after := runtime.NumGoroutine()
	if spawned-after < 50 {
		t.Fatalf("50 unstarted processes held %d goroutines; the count below proves nothing", spawned-after)
	}
	if after > before {
		t.Fatalf("%d goroutines after Run, %d before Spawn", after, before)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	e := NewEnv(1)
	m := NewMutex("m")
	inside := 0
	max := 0
	for i := 0; i < 8; i++ {
		e.Spawn("locker", func(p *Proc) {
			for j := 0; j < 5; j++ {
				m.Lock(p)
				inside++
				if inside > max {
					max = inside
				}
				p.Sleep(Microsecond)
				inside--
				m.Unlock()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if max != 1 {
		t.Fatalf("mutex admitted %d holders", max)
	}
}

func TestMutexTryLock(t *testing.T) {
	e := NewEnv(1)
	m := NewMutex("m")
	e.Spawn("p", func(p *Proc) {
		if !m.TryLock() {
			t.Error("TryLock on free mutex failed")
		}
		if m.TryLock() {
			t.Error("TryLock on held mutex succeeded")
		}
		m.Unlock()
		if !m.TryLock() {
			t.Error("TryLock after Unlock failed")
		}
		m.Unlock()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEnv(1)
	ticks := 0
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(10 * Microsecond)
			ticks++
		}
	})
	if err := e.RunUntil(Time(55 * Microsecond)); err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	if e.Now() != Time(55*Microsecond) {
		t.Fatalf("now = %v, want 55µs", e.Now())
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	trace := func(seed int64) []int64 {
		e := NewEnv(seed)
		var out []int64
		for i := 0; i < 4; i++ {
			e.Spawn("p", func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Sleep(Duration(p.Rand().Intn(100)) * Microsecond)
					out = append(out, int64(p.Now()))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatal("different trace lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestSpawnAtFuture: a process spawned from a deferred call starts at
// the call's instant, not at the time the call was scheduled.
func TestSpawnAtFuture(t *testing.T) {
	e := NewEnv(1)
	var started Time
	e.CallAt(Time(40*Microsecond), func() { e.Spawn("late", func(p *Proc) { started = p.Now() }) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if started != Time(40*Microsecond) {
		t.Fatalf("started at %v, want 40µs", started)
	}
}

func TestSpawnFromInsideProc(t *testing.T) {
	e := NewEnv(1)
	childRan := false
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(Microsecond)
		p.Env().Spawn("child", func(c *Proc) {
			c.Sleep(Microsecond)
			childRan = true
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
	if e.Now() != Time(2*Microsecond) {
		t.Fatalf("now = %v, want 2µs", e.Now())
	}
}

func TestDurationString(t *testing.T) {
	cases := map[Duration]string{
		500 * Nanosecond:      "500ns",
		2 * Microsecond:       "2.000µs",
		1500 * Microsecond:    "1.500ms",
		2500 * Millisecond:    "2.500s",
		3*Microsecond + 500:   "3.500µs",
		Duration(1) * Second:  "1.000s",
		250 * Millisecond / 2: "125.000ms",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(d), got, want)
		}
	}
}

// Property: for any set of sleep durations, processes wake in
// nondecreasing time order and the clock never goes backwards.
func TestQuickClockMonotonic(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEnv(7)
		var wakes []Time
		for _, d := range delays {
			d := Duration(d) * Microsecond
			e.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				wakes = append(wakes, p.Now())
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 1; i < len(wakes); i++ {
			if wakes[i] < wakes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a FIFO mutex hands the lock to waiters in request order.
func TestQuickMutexFIFOUnderLoad(t *testing.T) {
	f := func(n uint8) bool {
		workers := int(n%16) + 2
		e := NewEnv(3)
		m := NewMutex("m")
		var got []int
		for i := 0; i < workers; i++ {
			i := i
			e.Spawn("w", func(p *Proc) {
				p.Sleep(Duration(i)) // stagger arrival: i ns apart
				m.Lock(p)
				p.Sleep(Microsecond)
				got = append(got, i)
				m.Unlock()
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEventDispatch(b *testing.B) {
	e := NewEnv(1)
	e.Spawn("spinner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestWaitQueueSetNameAppearsInDeadlockReport: a name set on a queue
// after it was made (SetLabel) is the one a deadlock report shows.
func TestWaitQueueSetNameAppearsInDeadlockReport(t *testing.T) {
	e := NewEnv(1)
	q := NewWaitQueue("anon")
	q.SetLabel(fixedLabel("descriptive-name"))
	e.Spawn("stuck", func(p *Proc) { q.Wait(p) })
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock")
	}
	if !strings.Contains(err.Error(), "descriptive-name") || strings.Contains(err.Error(), "anon") {
		t.Fatalf("deadlock report %q misses queue name", err)
	}
}

func TestWaitingProcsSnapshot(t *testing.T) {
	e := NewEnv(1)
	q := NewWaitQueue("park")
	e.Spawn("a", func(p *Proc) { q.Wait(p) })
	e.Spawn("b", func(p *Proc) {
		p.Sleep(Microsecond)
		if got := len(p.Env().waiterNames()); got != 1 {
			t.Errorf("waiterNames = %d, want 1", got)
		}
		q.WakeAll()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(e.waiterNames()); got != 0 {
		t.Fatalf("waiterNames after run = %d", got)
	}
}
