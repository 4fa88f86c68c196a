package trace_test

import (
	"reflect"
	"runtime/debug"
	"testing"

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

// MergeByTime orders by (at, part, seq) with the root's stream tagged
// partition -1, whatever order the members emitted in.
func TestMergeByTimeOrder(t *testing.T) {
	type ev struct {
		at   sim.Time
		seq  uint64
		from string
	}
	streams := [][]ev{
		{{at: 5, seq: 9, from: "root"}, {at: 1, seq: 2, from: "root"}},                          // root: partition -1
		{{at: 5, seq: 2, from: "p0"}, {at: 5, seq: 1, from: "p0"}, {at: 0, seq: 3, from: "p0"}}, // partition 0
		{{at: 1, seq: 1, from: "p1"}, {at: 5, seq: 0, from: "p1"}},                              // partition 1
		nil,
	}
	got := trace.MergeByTime(streams, func(e *ev) (sim.Time, uint64) { return e.at, e.seq })
	want := []ev{
		{0, 3, "p0"},
		{1, 2, "root"}, {1, 1, "p1"},
		{5, 9, "root"}, {5, 1, "p0"}, {5, 2, "p0"}, {5, 0, "p1"},
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("position %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if out := trace.MergeByTime[ev](nil, nil); out == nil || len(out) != 0 {
		t.Errorf("merge of no streams = %v, want empty non-nil", out)
	}
}

// The ring keeps the newest capacity elements in push order and counts
// evictions, whether its capacity is a fraction of a segment or several
// segments and a remainder.
func TestRingEvictsOldest(t *testing.T) {
	for _, capacity := range []int{4, 4096, 2*4096 + 5} {
		r := trace.NewRing[int](capacity)
		for i := 1; i < capacity; i++ {
			*r.Next() = i
		}
		if got := r.AppendTo(nil); len(got) != capacity-1 || got[0] != 1 || got[capacity-2] != capacity-1 || r.Dropped() != 0 {
			t.Fatalf("cap %d before wrap: %d elements, dropped %d", capacity, len(got), r.Dropped())
		}
		for i := capacity; i <= 2*capacity+2; i++ {
			*r.Next() = i
		}
		got := r.AppendTo([]int{0})
		if len(got) != capacity+1 || r.Len() != capacity || r.Cap() != capacity || r.Dropped() != uint64(capacity+2) {
			t.Fatalf("cap %d after wrap: %d elements, len %d, dropped %d", capacity, len(got), r.Len(), r.Dropped())
		}
		for i, v := range got[1:] {
			if want := capacity + 3 + i; v != want {
				t.Fatalf("cap %d after wrap: element %d = %d, want %d", capacity, i, v, want)
			}
		}
	}
}

// TestEmitAllocs is the allocation contract of recording into a ring
// that is still growing, for the three recorders built on it: an emit
// inside a segment allocates nothing, and 4096 emits — one segment's
// worth, so exactly one boundary — allocate exactly one thing, the next
// segment. (That a full ring records in place is each recorder's own
// steady-state test.)
func TestEmitAllocs(t *testing.T) {
	// A collection the segments trigger would count its own start-up
	// allocations against the emitter.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const segLen = 4096
	span := trace.Span{Coord: 1, ID: 1, Label: "t", Attempt: 1}
	cases := []struct {
		name string
		emit func(p *sim.Proc) func() // returns the one-record emitter, warmed up
	}{
		{"trace", func(p *sim.Proc) func() {
			r := trace.NewRecorder(16 * segLen)
			r.Begin(p.Now(), &span)
			return func() { r.LockAcquire(p.Now(), &span, 1, 7, 0b1) }
		}},
		{"causality", func(p *sim.Proc) func() {
			r := causality.NewRecorder(causality.Options{Capacity: 16 * segLen})
			tx := r.Begin(p.Now(), &span)
			r.OnLock(tx, 1, 7, 0b1)
			return func() { r.LockFail(p.Now(), tx, 1, 7, 0b1) }
		}},
		{"flight", func(p *sim.Proc) func() {
			r := flight.NewRecorder(flight.Options{TxnCapacity: 16 * segLen})
			var dur [trace.NumPhases]sim.Duration
			txn := func() {
				x := r.Begin(p.Now(), &span, 0)
				r.Wire(x, trace.PhaseExec, flight.ClassRead, sim.Microsecond)
				r.Done(p.Now(), x, &dur, true)
			}
			for i := 0; i < 16; i++ {
				txn() // fill the record pool and the exemplar bucket
			}
			return txn
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			env.Spawn("emit", func(p *sim.Proc) {
				emit := tc.emit(p)
				emit()
				if avg := testing.AllocsPerRun(segLen/2, emit); avg != 0 {
					t.Errorf("an emit inside a segment allocates %v, want 0", avg)
				}
				segment := func() {
					for i := 0; i < segLen; i++ {
						emit()
					}
				}
				// One run at a time (each preceded by AllocsPerRun's warm-up
				// call): AllocsPerRun averages in whole numbers.
				for run := 0; run < 4; run++ {
					if n := testing.AllocsPerRun(1, segment); n != 1 {
						t.Errorf("%d emits allocate %v times, want 1: the next segment", segLen, n)
					}
				}
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
