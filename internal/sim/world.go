// Conservative parallel discrete-event simulation: a World is a set of
// partition environments that advance in lock-stepped time windows on
// real goroutines.
//
// The synchronization protocol is classic conservative lookahead
// (Chandy–Misra style, with a global window barrier instead of per-link
// null messages). Let E_min be the earliest pending event across every
// partition — heap heads and mail still in flight — and L the
// lookahead, the minimum virtual delay of any cross-partition
// interaction. Every partition may then dispatch all events with time
// ≤ E_min + L − 1 without hearing from its peers: anything a peer sends
// while executing this window carries a delivery time ≥ (its current
// time) + L ≥ E_min + L, which lies strictly beyond the window.
// Cross-partition sends travel through per-pair outboxes, double-buffered
// by window parity, and each partition merges its own inbound mail when
// its next window starts, sorted by (delivery time, source partition,
// per-pair sequence), so the merged order is a pure function of the
// simulation state — never of the number of worker threads or their
// scheduling.
//
// Worker count therefore only selects how many partitions execute
// concurrently inside one window; one thread or sixteen produce
// bit-identical schedules, which is what lets golden tests pin the
// output while the wall clock scales with shards × workers. Workers
// claim partitions by compare-and-swap, their own first and then any
// left over, so a window costs one published generation and a wait
// for its last partition.
package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxTime is the sentinel deadline used by Run (drain to completion).
const maxTime = Time(1<<62 - 1)

// spinWait is how long an idle worker polls for the next window or the
// window's last partition before it parks.
const spinWait = 100 * time.Microsecond

// xmsg is one cross-partition deferred call in flight: fn must execute
// in the target partition at virtual time at. src and seq give the
// deterministic merge order for ties at the same instant.
type xmsg struct {
	at  Time
	seq uint64
	src int32
	fn  func()
}

// outbox is one ordered source→target mailbox, double-buffered by
// window parity: the source appends to the buffer of the window it is
// running while the target merges the other one, filled in the window
// before. min is each buffer's earliest delivery time (maxTime when
// empty), so E_min needs no pass over the messages. seq counts every
// message ever sent on the pair, so ties at one delivery instant merge
// in send order.
type outbox struct {
	msgs [2][]xmsg
	min  [2]Time
	seq  uint64
}

// inbatch is a target partition's reusable gather-and-sort buffer for
// one merge of incoming messages. It implements sort.Interface so the
// merge sorts without allocating.
type inbatch struct{ msgs []xmsg }

func (b *inbatch) Len() int      { return len(b.msgs) }
func (b *inbatch) Swap(i, j int) { b.msgs[i], b.msgs[j] = b.msgs[j], b.msgs[i] }
func (b *inbatch) Less(i, j int) bool {
	x, y := &b.msgs[i], &b.msgs[j]
	if x.at != y.at {
		return x.at < y.at
	}
	if x.src != y.src {
		return x.src < y.src
	}
	return x.seq < y.seq
}

// World is a partitioned simulation: one Env per partition, advancing
// together through conservative time windows. Processes and deferred
// calls live in exactly one partition; interactions that cross
// partitions must be routed through Env.Send with a delay of at least
// the world's lookahead.
type World struct {
	envs      []*Env
	lookahead Duration
	workers   int
	in        []inbatch
	// gen numbers the windows (the first is 1) and bound is the
	// inclusive end of window gen. The main worker writes both only
	// between windows; a window's sends fill outbox buffer gen&1, and
	// Send validates the lookahead contract against bound.
	gen   uint64
	bound Time

	pool pool

	// rt collects executor introspection (see runtime.go): window and
	// mailbox counters plus wall-clock timings, exposed via RuntimeStats.
	rt worldRuntime
}

// pool runs each window: the main worker publishes window g by storing
// g in gen, and workers claim partitions by moving claim[j] from g−1 to
// g, so a helper that wakes late claims nothing. With workers > 1 the
// helpers are spawned when RunUntil starts and joined when it returns,
// so none outlives the call.
type pool struct {
	gen      atomic.Uint64
	stop     atomic.Bool
	claim    []atomic.Uint64
	left     atomic.Int32 // partitions of the current window still running
	helpers  atomic.Int32 // helpers not yet exited
	ids      atomic.Int32 // hands each helper its worker index
	sleepers atomic.Int32 // workers parked on cond
	mu       sync.Mutex
	cond     sync.Cond
	help     func() // w.help, bound once so that spawning allocates nothing
}

// NewWorld creates a world of parts partitions. Partition 0's random
// stream is seeded with seed exactly like NewEnv(seed); the other
// partitions draw their seeds from a splitmix of (seed, partition), so
// every partition has an independent deterministic stream. lookahead
// is the minimum virtual delay of any cross-partition interaction and
// must be positive.
func NewWorld(seed int64, parts int, lookahead Duration) *World {
	if parts < 1 {
		panic("sim: NewWorld needs at least one partition")
	}
	if lookahead <= 0 {
		panic("sim: NewWorld needs a positive lookahead")
	}
	w := &World{
		envs:      make([]*Env, parts),
		lookahead: lookahead,
		workers:   1,
		in:        make([]inbatch, parts),
	}
	w.pool.claim = make([]atomic.Uint64, parts)
	w.pool.cond.L = &w.pool.mu
	w.pool.help = w.help
	w.rt.injected = make([]uint64, parts)
	w.rt.mailboxHWM = make([]int, parts)
	w.rt.busyNS = make([]int64, parts)
	for i := range w.envs {
		e := NewEnv(partSeed(seed, i))
		e.world = w
		e.part = i
		e.outs = make([]outbox, parts)
		for t := range e.outs {
			e.outs[t].min = [2]Time{maxTime, maxTime}
		}
		w.envs[i] = e
	}
	return w
}

// partSeed derives partition i's random seed: the caller's seed
// verbatim for partition 0, a splitmix64 mix otherwise.
func partSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	z := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Env returns partition i's environment.
func (w *World) Env(i int) *Env { return w.envs[i] }

// Parts returns the number of partitions.
func (w *World) Parts() int { return len(w.envs) }

// Lookahead returns the world's conservative lookahead.
func (w *World) Lookahead() Duration { return w.lookahead }

// SetWorkers sets how many OS threads execute partitions concurrently
// within a window. It only affects wall-clock speed: the schedule is
// identical for every worker count. Values outside [1, Parts()] are
// clamped.
func (w *World) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n > len(w.envs) {
		n = len(w.envs)
	}
	w.workers = n
}

// Workers returns the configured worker count (after clamping).
func (w *World) Workers() int { return w.workers }

// Dispatched sums the partitions' dispatched-event counters.
func (w *World) Dispatched() uint64 {
	var n uint64
	for _, e := range w.envs {
		n += e.dispatched
	}
	return n
}

// Live sums the partitions' live-process counts.
func (w *World) Live() int {
	n := 0
	for _, e := range w.envs {
		n += e.live
	}
	return n
}

// Run dispatches events until none remain anywhere or a partition
// stops, like Env.Run for a single environment.
func (w *World) Run() error { return w.RunUntil(maxTime) }

// RunUntil advances every partition through conservative windows until
// the earliest pending event lies beyond deadline (or nothing is
// pending). Clocks are left at the deadline, exactly like
// Env.RunUntil. An error reports the lowest-numbered partition's
// process panic, or a global deadlock (every partition idle with
// processes parked and no cross-partition message in flight).
func (w *World) RunUntil(deadline Time) error {
	for _, e := range w.envs {
		e.stopped = false
	}
	if w.workers > 1 {
		w.startPool()
		defer w.stopPool()
	}
	for {
		emin, mail := w.horizon()
		if emin == maxTime || emin > deadline {
			// Mail in flight past the deadline is queued now, ahead of
			// anything the caller schedules before the next call.
			for t := range w.envs {
				w.merge(t, w.gen&1)
			}
			break
		}
		w.bound = min(emin.Add(w.lookahead)-1, deadline)
		w.gen++
		d0 := w.Dispatched()
		t0 := time.Now()
		w.runWindow()
		w.rt.windowNS += int64(time.Since(t0))
		w.rt.noteWindow(emin, w.bound, w.Dispatched()-d0, mail)
		if err := w.failure(); err != nil {
			return err
		}
		for _, e := range w.envs {
			if e.stopped {
				return nil
			}
		}
	}
	for _, e := range w.envs {
		if e.now < deadline && deadline < maxTime {
			e.now = deadline
		}
	}
	waiting := 0
	for _, e := range w.envs {
		waiting += e.waiting
	}
	if emin, _ := w.horizon(); waiting > 0 && emin == maxTime {
		names := []string{}
		for _, e := range w.envs {
			names = append(names, e.waiterNames()...)
		}
		return fmt.Errorf("sim: world deadlock: %d process(es) parked forever across %d partitions: %v",
			waiting, len(w.envs), names)
	}
	return nil
}

// horizon returns E_min, the earliest of every heap head and every
// outbox's running minimum, and the number of messages the next
// window's merges will take in. It runs between windows.
func (w *World) horizon() (emin Time, mail uint64) {
	par := w.gen & 1
	emin = maxTime
	for _, e := range w.envs {
		if len(e.events) > 0 {
			emin = min(emin, e.events[0].at)
		}
		for t := range e.outs {
			box := &e.outs[t]
			mail += uint64(len(box.msgs[par]))
			emin = min(emin, box.min[par])
		}
	}
	return emin, mail
}

// failure returns the lowest-numbered partition's failure, so the
// reported error does not depend on worker scheduling.
func (w *World) failure() error {
	for _, e := range w.envs {
		if e.failure != nil {
			return e.failure
		}
	}
	return nil
}

// merge drains buffer par of every outbox addressed to partition t
// into t's event heap, sorted by (delivery time, source partition, pair
// sequence) and pushed with fresh local sequence numbers: the
// deterministic merge the byte-identity contract rests on.
func (w *World) merge(t int, par uint64) {
	b := &w.in[t]
	b.msgs = b.msgs[:0]
	for _, src := range w.envs {
		box := &src.outs[t]
		if len(box.msgs[par]) == 0 {
			continue
		}
		b.msgs = append(b.msgs, box.msgs[par]...)
		// Release the fn references so the pooled backing array does
		// not pin dead closures.
		clear(box.msgs[par])
		box.msgs[par] = box.msgs[par][:0]
		box.min[par] = maxTime
	}
	if len(b.msgs) == 0 {
		return
	}
	sort.Sort(b)
	w.rt.noteInject(t, len(b.msgs))
	e := w.envs[t]
	for i := range b.msgs {
		e.seq++
		e.events.push(event{at: b.msgs[i].at, seq: e.seq, fn: b.msgs[i].fn})
		b.msgs[i].fn = nil
	}
}

// runWindow executes window gen. Partitions share nothing during a
// window (the lookahead contract routes every interaction through an
// outbox — observers included: each partition records into its own
// shard, merged at snapshot time), and the pool's atomics order each
// window's writes before the next window's reads, so cross-partition
// reads of state applied in earlier windows are race-free.
func (w *World) runWindow() {
	p := &w.pool
	p.left.Store(int32(len(w.envs)))
	p.gen.Store(w.gen)
	p.wake()
	w.work(0, w.gen)
	if w.workers > 1 {
		t0 := time.Now()
		p.await(func() bool { return p.left.Load() == 0 })
		w.rt.barrierNS += int64(time.Since(t0))
	}
}

// work runs worker i's share of window g: the partitions j with
// j mod workers = i first, then any the other workers have not claimed.
// A partition's window merges the mail sent to it in the window before,
// then dispatches up to the bound; its busy time covers both.
func (w *World) work(i int, g uint64) {
	p := &w.pool
	run := func(j int) {
		if c := &p.claim[j]; c.Load() == g-1 && c.CompareAndSwap(g-1, g) {
			t0 := time.Now()
			w.merge(j, (g+1)&1)
			w.envs[j].runWindow(w.bound)
			w.rt.busyNS[j] += int64(time.Since(t0))
			if p.left.Add(-1) == 0 {
				p.wake()
			}
		}
	}
	for j := i; j < len(w.envs); j += w.workers {
		run(j)
	}
	for j := range w.envs {
		run(j)
	}
}

// startPool spawns workers−1 helpers; the caller of runWindow is the
// main worker.
func (w *World) startPool() {
	p := &w.pool
	p.stop.Store(false)
	p.ids.Store(0)
	p.helpers.Store(int32(w.workers - 1))
	for i := 1; i < w.workers; i++ {
		go p.help()
	}
}

// stopPool stops the helpers and waits until every one has exited.
func (w *World) stopPool() {
	p := &w.pool
	p.stop.Store(true)
	p.wake()
	p.await(func() bool { return p.helpers.Load() == 0 })
}

// help is a helper's life: await a window, work it, repeat until the
// pool stops.
func (w *World) help() {
	p := &w.pool
	i, seen := int(p.ids.Add(1)), p.gen.Load()
	for {
		p.await(func() bool { return p.gen.Load() != seen || p.stop.Load() })
		if p.stop.Load() {
			break
		}
		seen = p.gen.Load()
		w.work(i, seen)
	}
	p.helpers.Add(-1)
	p.wake()
}

// await returns once done reports true. It polls for spinWait,
// yielding the processor every 256 polls, then parks until a wake.
func (p *pool) await(done func() bool) {
	for t0, i := time.Now(), 1; !done(); i++ {
		if i%256 != 0 {
			continue
		}
		if time.Since(t0) < spinWait {
			runtime.Gosched()
			continue
		}
		p.mu.Lock()
		p.sleepers.Add(1)
		for !done() {
			p.cond.Wait()
		}
		p.sleepers.Add(-1)
		p.mu.Unlock()
		return
	}
}

// wake rouses parked workers after a change one may await. A worker
// counts itself in sleepers before its last check, so no change is
// missed.
func (p *pool) wake() {
	if p.sleepers.Load() > 0 {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// runWindow dispatches this partition's events with time ≤ bound and
// leaves the clock at bound. It is RunUntil without the deadlock check
// (an idle partition here may simply be waiting for a cross-partition
// message; the world checks for global deadlock after the last
// window). The worker that runs it resumes the partition's coroutines
// on its own thread; a different worker may do so in the next window.
func (e *Env) runWindow(bound Time) {
	e.dispatch(bound)
	if e.failure == nil && e.now < bound {
		e.now = bound
	}
}

// Send schedules fn to run in partition env to at virtual time at.
// Within one partition it is exactly CallAt. Across partitions at must
// lie beyond the current window (the lookahead contract guarantees
// this for any interaction delayed by ≥ Lookahead); the call is
// buffered in the per-pair outbox and merged into the target when its
// next window starts.
func (e *Env) Send(to *Env, at Time, fn func()) {
	if to == e || e.world == nil {
		e.CallAt(at, fn)
		return
	}
	w := e.world
	if to.world != w {
		panic("sim: Send across worlds")
	}
	if at <= w.bound {
		panic(fmt.Sprintf("sim: Send(%v) violates lookahead: window ends at %v", at, w.bound))
	}
	box, par := &e.outs[to.part], w.gen&1
	box.seq++
	box.msgs[par] = append(box.msgs[par], xmsg{at: at, seq: box.seq, src: int32(e.part), fn: fn})
	box.min[par] = min(box.min[par], at)
}

// Part returns the environment's partition index (0 for a standalone
// environment).
func (e *Env) Part() int { return e.part }

// World returns the world the environment belongs to, or nil for a
// standalone environment.
func (e *Env) World() *World { return e.world }
