// iter.Pull needs Go 1.23; the module's go line stays at 1.22 to match
// benchmarks/go.mod, so this file says so itself (go vet reads it).
//
//go:build go1.23

// Package sim implements a deterministic cooperative discrete-event
// simulator. All protocol code in this repository runs inside sim
// processes: virtual time advances only when every process is blocked,
// exactly one process executes at a time, and ties are broken by spawn
// order, so a run is fully reproducible for a given seed.
//
// The simulator exists because the paper's behaviour is measured in
// microseconds of network round-trips; wall-clock goroutine scheduling
// cannot reproduce that reliably, and virtual time lets tests assert
// exact round-trip counts and latencies.
//
// The scheduler is built for wall-clock speed as much as determinism:
// the event queue is a hand-rolled non-boxing min-heap (no
// container/heap interface traffic), wait bookkeeping lives on the
// Proc itself rather than in side maps, finished Proc shells are
// pooled for reuse by later Spawns, and deferred calls (CallAt) let
// I/O models apply side effects at an exact virtual instant without
// waking the issuing process twice. Each process is a runtime
// coroutine (iter.Pull): dispatching one and parking it again are two
// direct switches on the scheduler's own thread, with no run queue, no
// channel and never a second runnable goroutine. Wait-queue labels are
// built only for a deadlock report.
// Dispatched events are counted so harnesses can report events/sec.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"sort"
)

// Time is a point in virtual time, in nanoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String formats a Duration in the most natural unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", float64(d)/float64(Second))
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	}
	return fmt.Sprintf("%dns", int64(d))
}

// Micros reports the duration as a float number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Seconds reports the duration as a float number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Add advances a Time by a Duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the Duration between two Times.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// event is one heap entry: either a process wakeup (proc != nil) or a
// deferred call (fn != nil). Exactly one of the two is set. gen guards
// against waking a pooled Proc shell that has been reused since the
// event was queued.
type event struct {
	at   Time
	seq  uint64
	proc *Proc
	fn   func()
	gen  uint32
}

// eventHeap is a hand-rolled binary min-heap ordered by (at, seq).
// container/heap would box every event through an interface on push
// and pop; this is the hottest data structure in the repository, so it
// stays monomorphic.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	// Sift up.
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release proc/fn references
	s = s[:n]
	*h = s
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && s.less(r, l) {
			min = r
		}
		if !s.less(min, i) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// Env is a simulation environment: a virtual clock, an event queue and
// a set of cooperative processes.
type Env struct {
	now        Time
	events     eventHeap
	seq        uint64
	rng        *rand.Rand
	live       int // processes spawned and not yet finished
	waiting    int // processes parked with no pending wake event
	failure    error
	dispatched uint64 // events dispatched across all Run calls

	// procs holds every distinct Proc shell ever spawned (live,
	// finished, and pooled); it is the lazy scan set for deadlock
	// reports. free is the pool of finished shells ready for reuse.
	procs []*Proc
	free  []*Proc

	// dispatchHook, when non-nil, observes every dispatched event
	// (tests use it to assert full-sequence determinism).
	dispatchHook func(at Time, seq uint64, p *Proc)

	// world/part/outs wire the environment into a partitioned World
	// (see world.go): part is the partition index and outs the per-pair
	// cross-partition mailboxes. All nil/zero for a standalone Env.
	world *World
	part  int
	outs  []outbox
}

// NewEnv returns an empty environment whose random source is seeded
// with seed.
func NewEnv(seed int64) *Env {
	return &Env{
		rng:    rand.New(rand.NewSource(seed)),
		events: make(eventHeap, 0, 64),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random source. It must
// only be used from the currently running process (or outside Run),
// which the cooperative scheduler guarantees.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Live reports the number of processes that have been spawned and have
// not yet finished.
func (e *Env) Live() int { return e.live }

// Waiting reports the number of processes currently parked on wait
// queues or suspended with no pending wake event. Live() - Waiting() is
// the runnable-process count the metrics plane samples per window.
func (e *Env) Waiting() int { return e.waiting }

// Dispatched reports the total number of events the scheduler has
// dispatched (process wakeups and deferred calls) across every Run and
// RunUntil on this environment. It is the denominator-free half of an
// events/sec measurement.
func (e *Env) Dispatched() uint64 { return e.dispatched }

// Proc is a simulated process. Its function runs as a coroutine of
// the scheduler: the dispatch loop switches into it with next, it
// switches back with yield when it parks, and everything it does
// between two blocking calls is atomic in virtual time.
//
// Finished Proc shells are pooled and reused by later Spawns (each
// incarnation gets a fresh coroutine); gen disambiguates incarnations
// so a stale queued event can never wake a reused shell.
type Proc struct {
	env   *Env
	name  string
	next  func() (struct{}, bool) // scheduler side: run until the next park
	yield func(struct{}) bool     // process side: park
	done  bool
	fn    func(*Proc)
	gen   uint32

	// waitQ is the Proc-resident wait bookkeeping: the queue the
	// process is parked on (suspendedQ while it awaits a deferred
	// resume), nil when runnable. Deadlock reports read the label
	// through it; keeping it here avoids a map mutation per Wait/Wake.
	waitQ *WaitQueue

	// ctx is the observer context of the transaction the process runs,
	// opaque here: the engine that owns it attributes work done on the
	// process (a fabric post, a lock) to that transaction through it.
	ctx any
}

// Ctx returns the process's observer context, or nil.
func (p *Proc) Ctx() any { return p.ctx }

// SetCtx attaches an observer context to the process.
func (p *Proc) SetCtx(ctx any) { p.ctx = ctx }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Rand returns the deterministic random source shared by the
// environment.
func (p *Proc) Rand() *rand.Rand { return p.env.rng }

// newProc returns a Proc shell with its coroutine created but not yet
// started: pooled if one is free, freshly allocated otherwise. The
// caller schedules it.
func (e *Env) newProc(name string, fn func(*Proc)) *Proc {
	var p *Proc
	if n := len(e.free); n > 0 {
		p = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*p = Proc{env: e, gen: p.gen + 1}
	} else {
		p = &Proc{env: e}
		e.procs = append(e.procs, p)
	}
	p.name, p.fn = name, fn
	p.next, _ = iter.Pull(p.run)
	return p
}

// Spawn creates a process and schedules it to start at the current
// virtual time. It may be called before Run or from inside a running
// process.
func (e *Env) Spawn(name string, fn func(*Proc)) *Proc {
	p := e.newProc(name, fn)
	e.live++
	e.schedule(p, e.now)
	return p
}

func (e *Env) schedule(p *Proc, at Time) {
	e.seq++
	e.events.push(event{at: at, seq: e.seq, proc: p, gen: p.gen})
}

// CallAt schedules fn to run at virtual time at, which must not be in
// the past. The call executes on the scheduler goroutine, between
// process dispatches, atomically at its instant: fn may inspect the
// environment, mutate model state and Resume suspended processes, but
// it must not block, park, or run for unbounded time. Ties with
// process wakeups at the same instant are broken by schedule order
// (seq), exactly as between two wakeups.
//
// CallAt exists for I/O models: the RDMA fabric applies a verb batch
// at the round-trip midpoint via CallAt while the issuing process
// stays parked until the completion instant, halving the coroutine
// switches per round-trip.
func (e *Env) CallAt(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: CallAt(%v) in the past (now %v)", at, e.now))
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, fn: fn})
}

// Suspend parks the calling process with no scheduled wakeup. A
// deferred call (CallAt) or another process must later Resume it;
// until then it counts as waiting in deadlock reports, labelled
// "suspended". Suspend is the single-park primitive beneath the
// fabric's round-trip model.
func (p *Proc) Suspend() {
	p.waitQ = suspendedQ
	p.env.waiting++
	p.park()
}

// Resume schedules a Suspended process to continue at time at (not in
// the past). It is the counterpart of Suspend and is typically called
// from a CallAt function.
func (e *Env) Resume(p *Proc, at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: Resume(%v) in the past (now %v)", at, e.now))
	}
	if p.waitQ == nil {
		panic(fmt.Sprintf("sim: Resume of process %q that is not suspended", p.name))
	}
	p.waitQ = nil
	e.waiting--
	e.schedule(p, at)
}

// run is the coroutine body: the first next() enters it, and returning
// from it ends the coroutine and returns control to the scheduler.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 16<<10)
			n := runtime.Stack(buf, false)
			p.env.failure = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, buf[:n])
		}
		p.done = true
		p.env.live--
		// Return the shell to the pool before handing control back:
		// the scheduler is suspended inside next, so no Spawn can race
		// the reuse, and this coroutine touches p no further.
		p.env.free = append(p.env.free, p)
	}()
	p.fn(p)
}

// park switches back to the scheduler and returns at the next dispatch.
func (p *Proc) park() { p.yield(struct{}{}) }

// Sleep suspends the process for d of virtual time. A non-positive d
// yields the processor: the process is rescheduled at the current time
// behind every event already queued for it.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.env.schedule(p, p.env.now.Add(d))
	p.park()
}

// Run dispatches events until none remain. It returns an error if a
// process panicked, or if processes remain parked on wait queues with
// no pending event (a deadlock). A caller that wants to end a run early
// steps RunUntil instead.
func (e *Env) Run() error { return e.RunUntil(Time(1<<62 - 1)) }

// RunUntil dispatches events with time ≤ deadline. Events beyond the
// deadline stay queued; the clock is left at the last dispatched
// event (or the deadline if nothing ran past it).
func (e *Env) RunUntil(deadline Time) error {
	e.dispatch(deadline)
	switch {
	case e.failure != nil:
		return e.failure
	case len(e.events) > 0: // the rest lies beyond the deadline
		e.now = deadline
	case e.waiting > 0:
		return fmt.Errorf("sim: deadlock at %v: %d process(es) parked forever: %v",
			e.now, e.waiting, e.waiterNames())
	}
	return nil
}

// dispatch is the scheduler's one event loop, shared by RunUntil and
// the World's window executor: it runs queued events with time ≤ limit
// until none remain or a process panics.
func (e *Env) dispatch(limit Time) {
	for len(e.events) > 0 && e.events[0].at <= limit {
		ev := e.events.pop()
		if ev.fn == nil && (ev.proc.done || ev.proc.gen != ev.gen) {
			continue // stale wakeup for a finished or reused process
		}
		if ev.at > e.now {
			e.now = ev.at
		}
		e.dispatched++
		if e.dispatchHook != nil {
			e.dispatchHook(ev.at, ev.seq, ev.proc)
		}
		if ev.fn != nil {
			ev.fn()
			continue
		}
		ev.proc.next() // returns when the process parks or finishes
		if e.failure != nil {
			return
		}
	}
}

// maxWaiterNames bounds how many parked processes a deadlock or
// diagnostic report lists (and how much sorting work building the
// report does).
const maxWaiterNames = 40

// waiterNames lists the parked processes by scanning the Proc-resident
// wait flags — nothing is maintained on the Wait/Wake hot path. The
// report holds the lexicographically first maxWaiterNames entries in
// sorted order; beyond that, work is capped with a bounded insertion
// rather than a full sort.
func (e *Env) waiterNames() []string {
	names := make([]string, 0, min(e.waiting, maxWaiterNames))
	total := 0
	for _, p := range e.procs {
		if p.waitQ == nil {
			continue
		}
		total++
		name := p.name + " @ " + p.waitQ.String()
		i := sort.SearchStrings(names, name)
		switch {
		case len(names) < maxWaiterNames:
			names = append(names, "")
			copy(names[i+1:], names[i:])
			names[i] = name
		case i < maxWaiterNames:
			copy(names[i+1:], names[i:maxWaiterNames-1])
			names[i] = name
		}
	}
	if total > maxWaiterNames {
		names = append(names, "...")
	}
	return names
}

// WaitQueue is a FIFO queue of parked processes. Processes enter with
// Wait and are released, in order, by Wake or WakeAll. It is the
// primitive beneath Mutex and Cond.
type WaitQueue struct {
	labeler fmt.Stringer
	ps      []*Proc
}

// fixedLabel is the eager labeler: a name known up front.
type fixedLabel string

func (l fixedLabel) String() string { return string(l) }

// suspendedQ is the queue a Suspended process is recorded as parked
// on; nothing ever enters it.
var suspendedQ = NewWaitQueue("suspended")

// NewWaitQueue returns a queue labelled name (used in deadlock
// reports).
func NewWaitQueue(name string) *WaitQueue { return &WaitQueue{labeler: fixedLabel(name)} }

// SetLabel makes l the queue's label. l.String is called only when a
// deadlock or diagnostic report is built, so a label that describes the
// owner's current state costs nothing on the Wait/Wake path.
func (q *WaitQueue) SetLabel(l fmt.Stringer) { q.labeler = l }

// String builds the queue's label.
func (q *WaitQueue) String() string {
	if q.labeler == nil {
		return ""
	}
	return q.labeler.String()
}

// Wait parks p until another process wakes it. The wakeup happens at
// the waker's current virtual time.
func (q *WaitQueue) Wait(p *Proc) {
	q.ps = append(q.ps, p)
	p.waitQ = q
	p.env.waiting++
	p.park()
}

// Wake releases up to n parked processes (all of them if n < 0),
// scheduling each at the current virtual time. It returns how many
// were released.
func (q *WaitQueue) Wake(n int) int {
	if n < 0 || n > len(q.ps) {
		n = len(q.ps)
	}
	for i := 0; i < n; i++ {
		p := q.ps[i]
		p.waitQ = nil
		p.env.waiting--
		p.env.schedule(p, p.env.now)
	}
	q.ps = q.ps[:copy(q.ps, q.ps[n:])]
	return n
}

// WakeAll releases every parked process.
func (q *WaitQueue) WakeAll() int { return q.Wake(-1) }

// Reset readies q, which no process may be parked on, for a new owner:
// it keeps the array Wait queues processes in, so a recycled owner's
// queue does not grow it again, and drops the processes Wake left
// behind in it.
func (q *WaitQueue) Reset() {
	if len(q.ps) > 0 {
		panic(fmt.Sprintf("sim: Reset of %s with %d processes parked", q, len(q.ps)))
	}
	clear(q.ps[:cap(q.ps)])
}

// Mutex is a FIFO mutual-exclusion lock for simulated processes.
type Mutex struct {
	held bool
	q    WaitQueue
}

// NewMutex returns an unlocked mutex labelled name.
func NewMutex(name string) *Mutex { return &Mutex{q: *NewWaitQueue("mutex " + name)} }

// SetLabel makes l the label of the mutex's wait queue, as
// WaitQueue.SetLabel; l supplies the whole label, "mutex " included.
func (m *Mutex) SetLabel(l fmt.Stringer) { m.q.SetLabel(l) }

// Lock blocks p until the mutex is available, granting it in FIFO
// order.
func (m *Mutex) Lock(p *Proc) {
	for m.held {
		m.q.Wait(p)
	}
	m.held = true
}

// TryLock acquires the mutex if it is free and reports whether it did.
func (m *Mutex) TryLock() bool {
	if m.held {
		return false
	}
	m.held = true
	return true
}

// Unlock releases the mutex and wakes the first waiter, if any.
func (m *Mutex) Unlock() {
	if !m.held {
		panic("sim: Unlock of unlocked Mutex")
	}
	m.held = false
	m.q.Wake(1)
}

// Held reports whether the mutex is currently held.
func (m *Mutex) Held() bool { return m.held }

// Reset readies m, which must be free, for a new owner, as
// WaitQueue.Reset does its queue.
func (m *Mutex) Reset() {
	if m.held {
		panic(fmt.Sprintf("sim: Reset of held %s", &m.q))
	}
	m.q.Reset()
}
