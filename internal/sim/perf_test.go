package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// BenchmarkDispatch measures the scheduler's raw dispatch rate with a
// realistically deep event heap: 64 processes sleeping in staggered
// loops, so every dispatch pays a real heap sift.
func BenchmarkDispatch(b *testing.B) {
	e := NewEnv(1)
	per := b.N/64 + 1
	for i := 0; i < 64; i++ {
		d := Duration(1+i%7) * Microsecond
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < per; j++ {
				p.Sleep(d)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWorldWindow measures one window of the partitioned
// executor end to end — handoff, merge, dispatch and the wait for the
// last partition — on 4 partitions. Each runs two processes that wake
// every half lookahead and send to another partition, so a window
// holds a few events and cross-partition sends per partition. One
// RunUntil spans b.N windows, and ns/window and allocs/window divide
// by the windows it ran.
func BenchmarkWorldWindow(b *testing.B) {
	const L = Microsecond
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			w := NewWorld(1, 4, L)
			w.SetWorkers(workers)
			nop := func() {}
			for i := 0; i < 4; i++ {
				e := w.Env(i)
				for j := 1; j <= 2; j++ {
					to := w.Env((i + j) % 4)
					e.Spawn(fmt.Sprintf("p%d/%d", i, j), func(p *Proc) {
						for {
							p.Sleep(L / 2)
							e.Send(to, p.Now().Add(L), nop)
						}
					})
				}
			}
			warm := Time(100 * L)
			if err := w.RunUntil(warm); err != nil {
				b.Fatal(err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			windows := w.Windows()
			b.ResetTimer()
			if err := w.RunUntil(warm + Time(b.N)*Time(L)); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			n := float64(w.Windows() - windows)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/window")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, "allocs/window")
		})
	}
}

// TestDispatchSteadyStateZeroAlloc pins the zero-allocation dispatch
// contract: once processes are spawned and the event heap has grown to
// its working size, running the scheduler allocates nothing.
func TestDispatchSteadyStateZeroAlloc(t *testing.T) {
	e := NewEnv(1)
	for i := 0; i < 8; i++ {
		d := Duration(1+i%3) * Microsecond
		e.Spawn(fmt.Sprintf("spinner%d", i), func(p *Proc) {
			for {
				p.Sleep(d)
			}
		})
	}
	deadline := Time(0)
	step := func() {
		deadline += Time(100 * Microsecond)
		if err := e.RunUntil(deadline); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm up: heap growth, proc shells, goroutine handoff
	if avg := testing.AllocsPerRun(50, step); avg > 0 {
		t.Fatalf("steady-state dispatch allocates %.1f objects per 100µs window, want 0", avg)
	}
}

// dispatchRec is one observed scheduler dispatch.
type dispatchRec struct {
	at   Time
	seq  uint64
	name string
}

// contendedRun drives a small contended workload — shared mutex,
// shared wait queue, rng-jittered sleeps — and returns the complete
// dispatch sequence the scheduler produced.
func contendedRun(t *testing.T, seed int64) []dispatchRec {
	t.Helper()
	e := NewEnv(seed)
	var recs []dispatchRec
	e.dispatchHook = func(at Time, seq uint64, p *Proc) {
		name := ""
		if p != nil {
			name = p.name
		}
		recs = append(recs, dispatchRec{at, seq, name})
	}
	mu := NewMutex("shared")
	q := NewWaitQueue("turnstile")
	token := 0
	for i := 0; i < 6; i++ {
		e.Spawn(fmt.Sprintf("worker%d", i), func(p *Proc) {
			for iter := 0; iter < 20; iter++ {
				p.Sleep(Duration(1 + p.Rand().Int63n(5)))
				mu.Lock(p)
				token++
				if token%4 == 0 {
					q.WakeAll()
				}
				mu.Unlock()
				if token%5 == 1 {
					q.Wait(p)
				}
			}
			q.WakeAll() // let stragglers drain
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestDispatchSequenceDeterminism is the property behind every golden
// test in this repository: the same seed yields the exact same
// (time, seq, process) dispatch sequence.
func TestDispatchSequenceDeterminism(t *testing.T) {
	base := contendedRun(t, 7)
	if len(base) == 0 {
		t.Fatal("no dispatches recorded")
	}
	rerun := contendedRun(t, 7)
	if len(rerun) != len(base) {
		t.Fatalf("rerun dispatched %d events, base %d", len(rerun), len(base))
	}
	for i := range base {
		if rerun[i] != base[i] {
			t.Fatalf("rerun diverges at dispatch %d: %+v vs %+v", i, rerun[i], base[i])
		}
	}
	other := contendedRun(t, 8)
	if len(other) == len(base) {
		same := true
		for i := range base {
			if other[i] != base[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical schedules; rng is not feeding the schedule")
		}
	}
}

// pingPong runs two processes that take turns under one mutex: every
// Unlock hands the lock to the other, parked in Lock. The returned
// function advances the pair by 100 handoffs.
func pingPong(tb testing.TB, e *Env, m *Mutex) (step func()) {
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("pp%d", i), func(p *Proc) {
			for {
				m.Lock(p)
				p.Sleep(Microsecond)
				m.Unlock()
			}
		})
	}
	deadline := Time(0)
	return func() {
		deadline += Time(100 * Microsecond)
		if err := e.RunUntil(deadline); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkWaitWake measures one contended mutex handoff: a Wait that
// parks, the Wake that schedules it, and the two dispatches between.
func BenchmarkWaitWake(b *testing.B) {
	e := NewEnv(1)
	step := pingPong(b, e, NewMutex("pp"))
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 100 {
		step()
	}
}

// countingLabel is a lazy labeler that counts how often it is asked.
type countingLabel struct{ calls int }

func (l *countingLabel) String() string {
	l.calls++
	return fmt.Sprintf("lazy label #%d", l.calls)
}

// TestLabelIsLazy pins the label contract: Wait and Lock never build
// the label and a contended handoff allocates nothing; a deadlock
// report reads it when the report is built.
func TestLabelIsLazy(t *testing.T) {
	lbl := &countingLabel{}
	e := NewEnv(1)
	m := new(Mutex)
	m.SetLabel(lbl)
	step := pingPong(t, e, m)
	step()
	if avg := testing.AllocsPerRun(20, step); avg != 0 {
		t.Errorf("contended Mutex handoff allocates %.1f objects per 100 handoffs, want 0", avg)
	}
	if lbl.calls != 0 {
		t.Errorf("labeler called %d times on the Wait/Wake path", lbl.calls)
	}

	d := NewEnv(1)
	q := NewWaitQueue("replaced")
	q.SetLabel(lbl)
	d.Spawn("stuck", func(p *Proc) { q.Wait(p) })
	d.Spawn("idle", func(p *Proc) { p.Suspend() })
	err := d.Run()
	want := "[idle @ suspended stuck @ lazy label #1]"
	if err == nil || !strings.HasSuffix(err.Error(), want) || lbl.calls != 1 {
		t.Fatalf("deadlock report %q after %d labeler calls, want suffix %q after 1", err, lbl.calls, want)
	}
}
