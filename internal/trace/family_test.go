package trace_test

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

	"crest/internal/causality"
	"crest/internal/engine"
	"crest/internal/flight"
	"crest/internal/layout"
	"crest/internal/metrics"
	"crest/internal/sim"
	"crest/internal/trace"
)

// member is a minimal observer built on the shared helpers, the way the
// real ones are: it embeds a Family and issues strided ids.
type member struct {
	fam  trace.Family[member]
	next uint64
}

func (m *member) Shard(part, parts int) *member {
	if m == nil {
		return nil
	}
	return m.fam.Shard("member", m, part, parts, func(f trace.Family[member]) *member {
		return &member{fam: f}
	})
}

func (m *member) id() uint64 {
	m.next++
	return m.fam.StrideID(m.next)
}

// shardFn is one observer's Shard with the receiver bound and the
// result boxed, so observers of different types share one table.
type shardFn = func(part, parts int) any

// contractCase is one observer type under TestFamilyContract.
type contractCase struct {
	name string
	nilS shardFn               // Shard on the nil observer
	root func() (any, shardFn) // a fresh root and its Shard
	kid  func(child any) shardFn
	// merge, if set, checks what the root's Snapshot makes of its
	// members.
	merge func(t *testing.T)
}

func caseOf[T any](name string, mk func() *T, shard func(*T, int, int) *T) contractCase {
	bind := func(r *T) shardFn { return func(p, n int) any { return shard(r, p, n) } }
	return contractCase{
		name: name,
		nilS: bind(nil),
		root: func() (any, shardFn) { r := mk(); return r, bind(r) },
		kid:  func(c any) shardFn { return bind(c.(*T)) },
	}
}

// TestFamilyContract is the Shard(part, parts) contract, checked once
// on the shared helper and on each recorder that delegates to it: a nil
// observer and a partition count below two return the receiver; above,
// every partition gets one stable child distinct from the root; and
// re-sharding a child, an out-of-range part and a changed partition
// count all panic.
func TestFamilyContract(t *testing.T) {
	history := caseOf("history", engine.NewHistory, (*engine.History).Shard)
	history.merge = historyMembersInPartitionOrder
	cases := []contractCase{
		caseOf("helper", func() *member { return &member{} }, (*member).Shard),
		caseOf("trace", func() *trace.Recorder { return trace.NewRecorder(16) }, (*trace.Recorder).Shard),
		caseOf("metrics", func() *metrics.Registry {
			return metrics.NewRegistry(metrics.Options{Window: 10 * sim.Microsecond})
		}, (*metrics.Registry).Shard),
		caseOf("causality", func() *causality.Recorder {
			return causality.NewRecorder(causality.Options{Capacity: 16})
		}, (*causality.Recorder).Shard),
		caseOf("flight", func() *flight.Recorder {
			return flight.NewRecorder(flight.Options{TxnCapacity: 16})
		}, (*flight.Recorder).Shard),
		history,
	}
	mustPanic := func(t *testing.T, what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, parts := range []int{1, 4} {
				if got := tc.nilS(0, parts); !reflect.ValueOf(got).IsNil() {
					t.Errorf("Shard(0, %d) on a nil observer = %v, want nil", parts, got)
				}
			}
			root, shard := tc.root()
			for _, parts := range []int{-1, 0, 1} {
				if shard(0, parts) != root {
					t.Errorf("Shard(0, %d) did not return the receiver", parts)
				}
			}
			kids := map[any]bool{}
			for part := 0; part < 3; part++ {
				c := shard(part, 3)
				if c == root || kids[c] {
					t.Fatalf("Shard(%d, 3) is the root or another partition's child", part)
				}
				if shard(part, 3) != c {
					t.Errorf("Shard(%d, 3) is not stable across calls", part)
				}
				kids[c] = true
			}
			mustPanic(t, "Shard of a child", func() { tc.kid(shard(1, 3))(0, 3) })
			mustPanic(t, "part below range", func() { shard(-1, 3) })
			mustPanic(t, "part above range", func() { shard(3, 3) })
			mustPanic(t, "changed partition count", func() { shard(0, 2) })
			if tc.merge != nil {
				tc.merge(t)
			}
		})
	}
}

// historyMembersInPartitionOrder: a history's Snapshot holds the root's
// commits, then each partition's in partition order, whatever order
// they were recorded in, over the initial state they all share.
func historyMembersInPartitionOrder(t *testing.T) {
	h := engine.NewHistory()
	h.Commit(engine.HTxn{ID: 1})
	for part := 2; part >= 0; part-- {
		kid := h.Shard(part, 3)
		kid.SetInitial(engine.CellID{Key: layout.Key(part)}, nil)
		kid.Commit(engine.HTxn{ID: uint64(part) + 2})
		kid.Commit(engine.HTxn{ID: uint64(part) + 10})
	}
	s := h.Snapshot()
	var ids []uint64
	for _, x := range s.Txns {
		ids = append(ids, x.ID)
	}
	if want := []uint64{1, 2, 10, 3, 11, 4, 12}; !reflect.DeepEqual(ids, want) {
		t.Errorf("snapshot ids %v, want %v", ids, want)
	}
	if len(s.Init) != 3 || len(h.Init) != 3 {
		t.Errorf("members do not share the initial state: %d cells in the snapshot, %d in the root", len(s.Init), len(h.Init))
	}
}

// Strided ids never collide across a family, and a classic (unsharded)
// observer numbers 1, 2, 3, ….
func TestStrideIDsCollisionFree(t *testing.T) {
	classic := &member{}
	for want := uint64(1); want <= 5; want++ {
		if got := classic.id(); got != want {
			t.Fatalf("classic id = %d, want %d", got, want)
		}
	}
	for _, parts := range []int{2, 3, 7} {
		root := &member{}
		seen := map[uint64]int{}
		for part := 0; part < parts; part++ {
			c := root.Shard(part, parts)
			for i := 0; i < 50; i++ {
				id := c.id()
				if id == 0 {
					t.Fatalf("parts=%d part=%d issued id 0 (reserved for unattributed)", parts, part)
				}
				if prev, dup := seen[id]; dup {
					t.Fatalf("parts=%d: id %d issued by partitions %d and %d", parts, id, prev, part)
				}
				seen[id] = part
			}
		}
	}
}

// MergeByTime orders streams already in (at, seq) order by (at, part,
// seq) with the root's stream tagged partition -1; SortByTime gives the
// same order whatever order the members emitted in.
func TestMergeByTimeOrder(t *testing.T) {
	type ev struct {
		at   sim.Time
		seq  uint64
		from string
	}
	key := func(e *ev) (sim.Time, uint64) { return e.at, e.seq }
	want := []ev{
		{0, 3, "p0"},
		{1, 2, "root"}, {1, 1, "p1"},
		{5, 9, "root"}, {5, 1, "p0"}, {5, 2, "p0"}, {5, 0, "p1"},
	}
	check := func(name string, got []ev) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d elements, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: position %d: got %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
	sorted := [][]ev{
		{{at: 1, seq: 2, from: "root"}, {at: 5, seq: 9, from: "root"}},                          // root: partition -1
		{{at: 0, seq: 3, from: "p0"}, {at: 5, seq: 1, from: "p0"}, {at: 5, seq: 2, from: "p0"}}, // partition 0
		{{at: 1, seq: 1, from: "p1"}, {at: 5, seq: 0, from: "p1"}},                              // partition 1
		nil,
	}
	check("MergeByTime", trace.MergeByTime(sorted, func(e *ev) sim.Time { return e.at }, nil))
	unsorted := [][]ev{
		{{at: 5, seq: 9, from: "root"}, {at: 1, seq: 2, from: "root"}},
		{{at: 5, seq: 2, from: "p0"}, {at: 5, seq: 1, from: "p0"}, {at: 0, seq: 3, from: "p0"}},
		{{at: 1, seq: 1, from: "p1"}, {at: 5, seq: 0, from: "p1"}},
		nil,
	}
	lens := make([]int, len(unsorted))
	for i, s := range unsorted {
		lens[i] = len(s)
	}
	check("SortByTime", trace.SortByTime(lens, func(m, j int) *ev { return &unsorted[m][j] }, key))
	if out := trace.MergeByTime[ev](nil, nil, nil); out == nil || len(out) != 0 {
		t.Errorf("merge of no streams = %v, want empty non-nil", out)
	}
}

// SortByTime orders as a comparison sort on (time, member, seq,
// position) does, however the times spread: a little out of order (as
// flight summaries are), all on one instant, in two clusters far apart,
// on the extremes of the range, uniformly at random; on one core and
// on two.
func TestSortByTimeMatchesComparisonSort(t *testing.T) {
	type ev struct {
		at   sim.Time
		seq  uint64
		m, j int
	}
	rng := rand.New(rand.NewSource(1))
	spreads := []struct {
		name string
		at   func(j int) sim.Time
	}{
		{"nearly sorted", func(j int) sim.Time { return sim.Time(j*1000 - rng.Intn(50_000)) }},
		{"one instant", func(int) sim.Time { return 7 }},
		{"two clusters", func(j int) sim.Time {
			if j%2 == 0 {
				return sim.Time(rng.Intn(100))
			}
			return math.MaxInt64 - sim.Time(rng.Intn(100))
		}},
		{"extremes", func(int) sim.Time { return []sim.Time{math.MinInt64, -1, 0, math.MaxInt64}[rng.Intn(4)] }},
		{"random", func(int) sim.Time { return sim.Time(rng.Int63n(1 << 20)) }},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, spread := range spreads {
		for k, lens := range [][]int{{0}, {1}, {2}, {5000}, {5000}, {0, 1200, 0, 3000, 7}} {
			runtime.GOMAXPROCS(1 + k%2)
			streams := make([][]ev, len(lens))
			var want []ev
			for m, n := range lens {
				for j := range n {
					e := ev{spread.at(j), uint64(rng.Intn(64)), m, j}
					streams[m] = append(streams[m], e)
					want = append(want, e)
				}
			}
			slices.SortFunc(want, func(a, b ev) int {
				return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.m, b.m), cmp.Compare(a.seq, b.seq), cmp.Compare(a.j, b.j))
			})
			got := trace.SortByTime(lens, func(m, j int) *ev { return &streams[m][j] },
				func(e *ev) (sim.Time, uint64) { return e.at, e.seq })
			if len(got) != len(want) {
				t.Fatalf("%s, lengths %v: %d elements, want %d", spread.name, lens, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, lengths %v: position %d holds %+v, want %+v", spread.name, lens, i, got[i], want[i])
				}
			}
		}
	}
}

// The ring keeps the newest capacity elements in push order and counts
// evictions; its view is oldest first whether or not the ring has
// wrapped, and stays what it was while the ring is written on.
func TestRingEvictsOldest(t *testing.T) {
	for _, capacity := range []int{1, 4, 4096, 2*4096 + 5} {
		r := trace.NewRing[int](capacity)
		if got := r.View(); got != nil {
			t.Fatalf("cap %d: an unwritten ring views %v", capacity, got)
		}
		for i := 1; i < capacity; i++ {
			*r.Next() = i
		}
		before := r.View()
		if len(before) != capacity-1 || capacity > 1 && (before[0] != 1 || before[capacity-2] != capacity-1) || r.Dropped() != 0 {
			t.Fatalf("cap %d before wrap: %d elements, dropped %d", capacity, len(before), r.Dropped())
		}
		for i := capacity; i <= 2*capacity+2; i++ {
			*r.Next() = i
		}
		// At reads the wrapped ring in place, and again once viewed.
		at := func(when string) {
			for i := 0; i < r.Len(); i++ {
				if want := capacity + 3 + i; r.At(i) != want {
					t.Fatalf("cap %d %s: At(%d) = %d, want %d", capacity, when, i, r.At(i), want)
				}
			}
		}
		at("wrapped")
		// A second view of the same state is the same slice.
		got := r.View()
		at("viewed")
		if again := r.View(); len(got) == 0 || &again[0] != &got[0] {
			t.Fatalf("cap %d: two views of one state are different slices", capacity)
		}
		if len(got) != capacity || r.Len() != capacity || r.Cap() != capacity || r.Dropped() != uint64(capacity+2) {
			t.Fatalf("cap %d after wrap: %d elements, len %d, dropped %d", capacity, len(got), r.Len(), r.Dropped())
		}
		for i, v := range got {
			if want := capacity + 3 + i; v != want {
				t.Fatalf("cap %d after wrap: element %d = %d, want %d", capacity, i, v, want)
			}
		}
		for i, v := range before {
			if v != i+1 {
				t.Fatalf("cap %d: element %d of a view taken before the wrap became %d", capacity, i, v)
			}
		}
		// The view is the ring's: appending to it must not write the ring.
		_ = append(got, -1)
		for i := 0; i < capacity/2+1; i++ {
			*r.Next() = -2
		}
		for i, v := range got {
			if want := capacity + 3 + i; v != want {
				t.Fatalf("cap %d: element %d of a view became %d once the ring moved on", capacity, i, v)
			}
		}
	}
}

// TestEmitAllocs is the allocation contract of recording, for the three
// recorders built on Ring: an emit allocates nothing but the ring's
// storage, and that is counted exactly — none as the ring fills and
// wraps once its first write allocated it, and one on the first write
// after a snapshot viewed it (the copy that keeps the snapshot as it
// was). (That a full ring records in place is each recorder's own
// steady-state test.)
func TestEmitAllocs(t *testing.T) {
	// A collection the storage triggers would count its own start-up
	// allocations against the emitter.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const capacity = 1 << 16
	span := trace.Span{Coord: 1, ID: 1, Label: "t", Attempt: 1}
	type recorder struct {
		emit     func() // records one ring element
		snapshot func()
	}
	cases := []struct {
		name string
		mk   func(p *sim.Proc) recorder
	}{
		{"trace", func(p *sim.Proc) recorder {
			r := trace.NewRecorder(capacity)
			r.Begin(p.Now(), &span)
			return recorder{func() { r.LockAcquire(p.Now(), &span, 1, 7, 0b1) }, func() { r.Snapshot() }}
		}},
		{"causality", func(p *sim.Proc) recorder {
			r := causality.NewRecorder(causality.Options{Capacity: capacity})
			tx := r.Begin(p.Now(), &span)
			return recorder{func() { r.LockFail(p.Now(), tx, 1, 7, 0b1, tx.ID) }, func() { r.Snapshot() }}
		}},
		{"flight", func(p *sim.Proc) recorder {
			r := flight.NewRecorder(flight.Options{TxnCapacity: capacity})
			var dur [trace.NumPhases]sim.Duration
			txn := func() {
				x := r.Begin(p.Now(), &span, 0)
				r.Wire(x, trace.PhaseExec, flight.ClassRead, sim.Microsecond)
				r.Done(p.Now(), x, &dur, true)
			}
			for i := 0; i < 16; i++ {
				txn() // fill the record pool and the exemplar bucket
			}
			return recorder{txn, func() { r.Snapshot() }}
		}},
	}
	// allocs counts what n emits allocate; AllocsPerRun's warm-up call
	// is skipped, so the n are the only ones.
	allocs := func(rec recorder, n int) float64 {
		warm := true
		return testing.AllocsPerRun(1, func() {
			if warm {
				warm = false
				return
			}
			for i := 0; i < n; i++ {
				rec.emit()
			}
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			env.Spawn("emit", func(p *sim.Proc) {
				rec := tc.mk(p)
				rec.emit() // the ring's first write: its storage (TestRingAllocatesOnFirstWrite)
				if n := allocs(rec, 3*capacity); n != 0 {
					t.Errorf("%d emits, the ring filling and wrapping, allocate %v times, want 0", 3*capacity, n)
				}
				for run := 0; run < 3; run++ {
					rec.snapshot()
					if n := allocs(rec, 1); n != 1 {
						t.Errorf("the first emit after a snapshot allocates %v times, want 1: the storage", n)
					}
					if n := allocs(rec, capacity); n != 0 {
						t.Errorf("%d later emits allocate %v times, want 0", capacity, n)
					}
				}
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A fresh ring allocates nothing before its first write and its
// storage once, on it.
func TestRingAllocatesOnFirstWrite(t *testing.T) {
	for _, tc := range []struct{ capacity, want int }{{0, 0}, {100, 1}, {1 << 15, 1}} {
		if n := testing.AllocsPerRun(10, func() {
			r := trace.NewRing[[64]byte](tc.capacity)
			for i := 0; i < 3*tc.capacity; i++ {
				r.Next()[0] = byte(i)
			}
		}); n != float64(tc.want) {
			t.Errorf("a ring of capacity %d written past it allocates %v times, want %d", tc.capacity, n, tc.want)
		}
	}
}

// observed is one recorder under TestSnapshotsAliasRings, unsharded or
// sharded: record writes transaction i into partition part's member (the
// recorder itself when unsharded); snapshot takes a snapshot and reports
// what it holds.
type observed struct {
	record   func(part, i int)
	snapshot func() snapshotted
}

// snapshotted is one snapshot: its export, the bytes of the family's
// rings it covers, and the bytes of what it must build whatever the
// rings' storage — the merged stream of a sharded family, causality's
// rendered transaction nodes.
type snapshotted struct {
	export          func(io.Writer) error
	ringBytes, made uint64
	arrays          func() []int // the lengths of the arrays the export writes with Elements
}

func sizeOf[T any](n int) uint64 {
	var v T
	return uint64(n) * uint64(unsafe.Sizeof(v))
}

// TestSnapshotsAliasRings: a snapshot copies no ring. Taken of a
// recorder that records nothing more, it allocates less than an eighth
// of the bytes its rings hold beyond what it must build anyway (nothing
// for an unsharded trace recorder, the one merged stream of a sharded
// family, flight's summaries sorted into begin order), the rings having
// wrapped before it. And it stays what it was while the recorder goes
// on: its export is byte-equal after the rings wrapped again.
func TestSnapshotsAliasRings(t *testing.T) {
	const capacity = 1 << 12
	for _, tc := range observedCases(capacity) {
		for _, parts := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/parts=%d", tc.name, parts), func(t *testing.T) {
				rec := tc.mk(parts)
				// Enough transactions to wrap every member's rings, then as
				// many more.
				txns := 2 * capacity * parts
				for i := 0; i < txns; i++ {
					rec.record(i%parts, i)
				}
				var m0, m1 runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&m0)
				snap := rec.snapshot()
				runtime.ReadMemStats(&m1)
				alloc := m1.TotalAlloc - m0.TotalAlloc
				if alloc >= snap.made+snap.ringBytes/8 {
					t.Errorf("the snapshot allocated %d bytes: %d beyond the %d it builds, want < %d (an eighth of its rings' %d)",
						alloc, alloc-min(alloc, snap.made), snap.made, snap.ringBytes/8, snap.ringBytes)
				}
				var before, after bytes.Buffer
				if err := snap.export(&before); err != nil {
					t.Fatal(err)
				}
				for i := txns; i < 2*txns; i++ {
					rec.record(i%parts, i)
				}
				if err := snap.export(&after); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(before.Bytes(), after.Bytes()) {
					t.Errorf("the snapshot's export changed once the recorder went on: %d bytes, then %d", before.Len(), after.Len())
				}
				var now bytes.Buffer
				if err := rec.snapshot().export(&now); err != nil {
					t.Fatal(err)
				}
				if bytes.Equal(before.Bytes(), now.Bytes()) {
					t.Error("a snapshot taken after more transactions exports the same bytes")
				}
			})
		}
	}
}

// TestExportsIgnoreGOMAXPROCS: the Chrome, crest-why and crest-flight
// exports of one snapshot, unsharded and sharded, with every array
// long enough for Elements to hand chunks to its helper, are the same
// bytes at GOMAXPROCS 1 and 2.
func TestExportsIgnoreGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const capacity = 1 << 14
	for _, tc := range observedCases(capacity) {
		for _, parts := range []int{1, 4} {
			rec := tc.mk(parts)
			for i := 0; i < capacity*parts; i++ {
				rec.record(i%parts, i)
			}
			snap := rec.snapshot()
			for _, n := range snap.arrays() {
				if n < trace.MinChunkedElements {
					t.Fatalf("%s/parts=%d: an array of %d elements, too short to chunk", tc.name, parts, n)
				}
			}
			var docs [2]bytes.Buffer
			for i, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				if err := snap.export(&docs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(docs[0].Bytes(), docs[1].Bytes()) {
				t.Errorf("%s/parts=%d: %d bytes at GOMAXPROCS 1, %d at 2", tc.name, parts, docs[0].Len(), docs[1].Len())
			}
		}
	}
}

// observedCase is one recorder type under TestSnapshotsAliasRings and
// TestExportsIgnoreGOMAXPROCS.
type observedCase struct {
	name string
	mk   func(parts int) observed
}

// observedCases records into each recorder type with rings of the given
// capacity: per transaction three trace events and one span, eight why
// edges and one why node, one flight summary.
func observedCases(capacity int) []observedCase {
	return []observedCase{
		{"trace", func(parts int) observed {
			r := trace.NewRecorder(capacity)
			return observed{
				record: func(part, i int) {
					m := r.Shard(part, parts)
					at := sim.Time(i) * 1000
					s := trace.Span{Coord: uint64(part + 1), ID: uint64(i*parts + part + 1), Label: "t", Attempt: 1}
					m.Begin(at, &s)
					m.LockAcquire(at+1, &s, 1, layout.Key(i%7), 0b1)
					m.Commit(at+2, &s)
				},
				snapshot: func() snapshotted {
					s := r.Snapshot()
					made := uint64(0)
					if parts > 1 {
						made = sizeOf[trace.Event](len(s.Events))
					}
					return snapshotted{func(w io.Writer) error { return trace.WriteChromeTrace(w, s) },
						sizeOf[trace.Event](len(s.Events)), made,
						func() []int { return []int{len(s.Spans()), len(s.Events)} }}
				},
			}
		}},
		{"causality", func(parts int) observed {
			r := causality.NewRecorder(causality.Options{Capacity: capacity, TxnCapacity: capacity})
			return observed{
				record: func(part, i int) {
					m := r.Shard(part, parts)
					at := sim.Time(i) * 1000
					s := trace.Span{Coord: uint64(part + 1), ID: uint64(i*parts + part + 1), Label: "t", Attempt: 1}
					tx := m.Begin(at, &s)
					for k := 0; k < 8; k++ {
						m.LockFail(at+sim.Time(k), tx, 1, layout.Key(i%7), 0b1, 0)
					}
					m.Commit(at+9, tx)
				},
				snapshot: func() snapshotted {
					s := r.Snapshot()
					made := sizeOf[causality.TxnInfo](len(s.Txns))
					if parts > 1 {
						made += sizeOf[causality.Edge](len(s.Edges))
					}
					return snapshotted{func(w io.Writer) error { return causality.WriteJSON(w, s) },
						sizeOf[causality.Edge](len(s.Edges)) + sizeOf[*causality.Txn](len(s.Txns)), made,
						func() []int { return []int{len(s.Txns), len(s.Edges)} }}
				},
			}
		}},
		{"flight", func(parts int) observed {
			r := flight.NewRecorder(flight.Options{TxnCapacity: capacity})
			var dur [trace.NumPhases]sim.Duration
			return observed{
				record: func(part, i int) {
					m := r.Shard(part, parts)
					at := sim.Time(i) * 1000
					s := trace.Span{Coord: uint64(part + 1), ID: uint64(i*parts + part + 1), Label: "t", Attempt: 1}
					x := m.Begin(at, &s, part)
					m.Wire(x, trace.PhaseExec, flight.ClassRead, 500)
					dur[trace.PhaseExec] = 500
					m.Done(at+500, x, &dur, true)
				},
				snapshot: func() snapshotted {
					s := r.Snapshot()
					return snapshotted{func(w io.Writer) error { return flight.WriteJSON(w, s) },
						sizeOf[flight.TxnBudget](len(s.Txns)), sizeOf[flight.TxnBudget](len(s.Txns)),
						func() []int { return []int{len(s.Txns)} }}
				},
			}
		}},
	}
}
