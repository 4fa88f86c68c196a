package core

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"crest/internal/causality"
	"crest/internal/engine"
	"crest/internal/flight"
	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/rdma"
	"crest/internal/sim"
	"crest/internal/trace"
	"crest/internal/workload"
	"crest/internal/workload/smallbank"
	"crest/internal/workload/tpcc"
	"crest/internal/workload/ycsb"
)

// localizedAttemptAllocs is the steady-state allocation count of the
// attempt TestLocalizedAttemptAllocs runs, as measured when the
// localized path last changed (27 before objects were recycled and
// records decoded into them, 6 while every base block was an object, 4
// while the version slab was an object of its own).
const localizedAttemptAllocs = 3

// mixedTxn is the attempt the allocation tests run: an increment of
// cell 0 of record w and a read of cell 1 of record r.
func mixedTxn(w, r layout.Key) *engine.Txn {
	var out []uint64
	txn := incTxn(w, 0, 1)
	txn.Blocks[0].Ops = append(txn.Blocks[0].Ops, readTxn(r, []int{1}, &out).Blocks[0].Ops...)
	return txn
}

// steadyAllocs runs txn on c until the scratch is at its steady state,
// then returns the allocations of one more attempt, which must commit;
// cross is whether the attempts must be cross-shard.
func steadyAllocs(t *testing.T, f *fixture, c *Coordinator, txn *engine.Txn, cross bool) float64 {
	var got float64
	f.env.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 64; i++ { // grow the scratch to its steady state
			c.Execute(p, txn)
		}
		got = testing.AllocsPerRun(200, func() {
			if a := c.Execute(p, txn); !a.Committed || a.CrossShard != cross {
				t.Errorf("uncontended attempt: committed %v (%v), cross-shard %v", a.Committed, a.Reason, a.CrossShard)
			}
		})
	})
	run(t, f)
	return got
}

// TestLocalizedAttemptAllocs bounds the steady-state allocations of one
// uncontended localized attempt — a read-write record and a read-only
// record, so admission, validation, log and write-back all run. With
// one coordinator every attempt ends with its objects unreferenced and
// retired, so each one also re-creates its two objects. What is left is
// what outlives the attempt or is the caller's: the transaction state
// with its version inline, and what the hook returns. The two base
// blocks are cut from the node's chunks, a chunk per some 2 000 of
// them. The history checker is off, as in a benchmark run.
func TestLocalizedAttemptAllocs(t *testing.T) {
	f := newFixture(t, DefaultOptions(), 2, 1, 1, 4, false)
	got := steadyAllocs(t, f, f.cns[0].NewCoordinator(0), mixedTxn(0, 1), false)
	t.Logf("%.0f allocs per attempt", got)
	if got > localizedAttemptAllocs {
		t.Errorf("%.0f allocs per attempt, %d when last measured", got, localizedAttemptAllocs)
	}
	if n := f.cns[0].CachedObjects(); n != 0 {
		t.Errorf("%d objects still cached: the attempts did not re-create theirs", n)
	}
}

// crossShardFixture is two shard groups of two memory nodes, one
// coordinator, and TestLocalizedAttemptAllocs' attempt with its written
// record in the group other than the coordinator's home and its read
// one at home: each commit pays the prepare round.
func crossShardFixture(tb testing.TB) (*fixture, *Coordinator, *engine.Txn) {
	f := newGroupsFixture(tb, DefaultOptions(), 2, 2, 1, 1, 16, false)
	c := f.cns[0].NewCoordinator(0)
	pool := f.sys.db.Pool
	w, r := layout.Key(0), layout.Key(0)
	for pool.ShardOf(1, w) == c.Home {
		w++
	}
	for pool.ShardOf(1, r) != c.Home {
		r++
	}
	return f, c, mixedTxn(w, r)
}

// TestCrossShardAttemptAllocs: a write attempt that spans both of two
// shard groups allocates no more than TestLocalizedAttemptAllocs'
// single-group one. The prepare round builds its batches in the
// attempt's scratch.
func TestCrossShardAttemptAllocs(t *testing.T) {
	f, c, txn := crossShardFixture(t)
	got := steadyAllocs(t, f, c, txn, true)
	t.Logf("%.0f allocs per cross-shard attempt", got)
	if got > localizedAttemptAllocs {
		t.Errorf("%.0f allocs per cross-shard attempt, %d for a single-group one", got, localizedAttemptAllocs)
	}
}

func BenchmarkCrossShardAttempt(b *testing.B) {
	f, c, txn := crossShardFixture(b)
	f.env.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			c.Execute(p, txn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if a := c.Execute(p, txn); !a.Committed || !a.CrossShard {
				b.Errorf("uncontended attempt: committed %v (%v), cross-shard %v", a.Committed, a.Reason, a.CrossShard)
			}
		}
	})
	run(b, f)
}

// TestTxnObjectSizeClasses holds the objects a commit allocates once per
// transaction to the size classes they were fitted into, so that a
// field added later fails here instead of moving a whole class up: the
// transaction state alone and with one to four versions inline (see
// txnVersN), and the SmallBank and YCSB programs, which embed their
// first Out entries and their ops. A program's size is what Next
// allocates: that one object. The record object is held too: a compute
// node makes one per cached record.
func TestTxnObjectSizeClasses(t *testing.T) {
	for _, c := range []struct {
		name        string
		size, class uintptr
	}{
		{"txnState", unsafe.Sizeof(txnState{}), 112},
		{"txnVers1", unsafe.Sizeof(txnVers1{}), 160},
		{"txnVers2", unsafe.Sizeof(txnVers2{}), 192},
		{"txnVers3", unsafe.Sizeof(txnVers3{}), 240},
		{"txnVers4", unsafe.Sizeof(txnVers4{}), 288},
		{"object", unsafe.Sizeof(object{}), 320},
	} {
		t.Logf("%s: %d bytes", c.name, c.size)
		if c.size > c.class {
			t.Errorf("%s is %d bytes, over its %d-byte size class", c.name, c.size, c.class)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ycfg := ycsb.DefaultConfig()
	ycfg.Records = 512
	for _, g := range []struct {
		gen   workload.Generator
		class uint64
	}{
		{smallbank.New(smallbank.Config{Accounts: 64, Theta: 0.9}), 448},
		{ycsb.New(ycfg), 480},
	} {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 100; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			txn := g.gen.Next(rng)
			runtime.ReadMemStats(&after)
			if objs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; objs != 1 || bytes > g.class {
				t.Fatalf("%s %s: Next allocated %d objects, %d bytes; want the program, at most %d bytes",
					g.gen.Name(), txn.Label, objs, bytes, g.class)
			}
		}
	}
}

// observedAttemptAllocs is TestObservedAttemptAllocs' ceiling, as
// measured when the why recorder came to cut its nodes from a slab: the
// unobserved attempt's (6 while the trace allocated a span per
// transaction, 5 while the version slab was an object of its own, 4
// while the why node was).
const observedAttemptAllocs = 3

// TestObservedAttemptAllocs is TestLocalizedAttemptAllocs' attempt with
// the trace, why and flight recorders attached. Each attempt is a new
// transaction to them; observing it adds nothing per attempt: the why
// node comes from a slab, and rings allocate their storage once.
func TestObservedAttemptAllocs(t *testing.T) {
	f := newFixture(t, DefaultOptions(), 2, 1, 1, 4, false)
	f.sys.db.Attach(engine.Observers{Trace: trace.NewRecorder(0), Why: causality.NewRecorder(causality.Options{}),
		Flight: flight.NewRecorder(flight.Options{})}, f.env, 0)
	got := steadyAllocs(t, f, f.cns[0].NewCoordinator(0), mixedTxn(0, 1), false)
	t.Logf("%.0f allocs per observed attempt", got)
	if got > observedAttemptAllocs {
		t.Errorf("%.0f allocs per observed attempt, %d when last measured", got, observedAttemptAllocs)
	}
}

// loadedCoordinator returns one coordinator of a one-node system with
// gen freshly loaded and the address cache warm, and txns: 64
// transactions of gen (of one label, if given).
func loadedCoordinator(tb testing.TB, gen workload.Generator, label string) (*sim.Env, *Coordinator, []*engine.Txn) {
	env := sim.NewEnv(1)
	params := rdma.DefaultParams()
	params.JitterPct = 0
	size := 8 << 20
	for _, def := range gen.Tables() {
		size += def.Capacity * (layout.NewRecord(def.Schema.Normalize()).Size() + 64)
	}
	sys := New(engine.NewDB(memnode.NewPool(rdma.NewFabric(env, params), 2, size, 1)), DefaultOptions())
	for _, def := range gen.Tables() {
		sys.CreateTable(def.Schema, def.Capacity)
	}
	gen.Load(sys.Load)
	if err := sys.FinishLoad(); err != nil {
		tb.Fatal(err)
	}
	cn := sys.NewComputeNode(0)
	cn.WarmCache()
	rng := rand.New(rand.NewSource(1))
	var txns []*engine.Txn
	for len(txns) < 64 {
		if t := gen.Next(rng); label == "" || t.Label == label {
			txns = append(txns, t)
		}
	}
	return env, cn.NewCoordinator(0), txns
}

// benchLocalized times one coordinator executing txns round-robin, back
// to back and uncontended, on a freshly loaded gen: the localized
// path's own cost with every object evicted and re-created per attempt.
// Generation stays outside the loop — txns (of one label, if given) are
// made up front and re-executed, as a retry would.
func benchLocalized(b *testing.B, gen workload.Generator, label string) {
	env, c, txns := loadedCoordinator(b, gen, label)
	env.Spawn("bench", func(p *sim.Proc) {
		exec := func(i int) {
			if a := c.Execute(p, txns[i%len(txns)]); !a.Committed {
				b.Errorf("uncontended attempt aborted: %v", a.Reason)
			}
		}
		for i := 0; i < 2*len(txns); i++ { // scratch, free list and tracker at steady state
			exec(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			exec(i)
		}
	})
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestNewOrderVersionsComeFromOneSlab bounds the allocations of an
// uncontended NewOrder attempt by a constant, not by its cells or its
// records: an attempt of n order lines writes 6 + 8n cells, and their
// versions are one slab of the transaction's (txnState.vers), not an
// object each; the base block of each object it re-creates is cut from
// the node's chunks, and the conflict-tracker state of a record written
// for the first time (the order rows are new ones every attempt) from
// the tracker's slabs. What is left is the transaction state, the
// version slab (a NewOrder writes too many cells to carry it inline)
// and the two chunks its hooks carve their values from: four.
// AllocsPerRun rounds the mean down, so the chunk or slab an attempt now
// and then starts fits in that budget.
func TestNewOrderVersionsComeFromOneSlab(t *testing.T) {
	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = 4
	env, c, txns := loadedCoordinator(t, tpcc.New(cfg), "NewOrder")
	env.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 2*len(txns); i++ {
			c.Execute(p, txns[i%len(txns)])
		}
		for _, txn := range txns[:8] {
			got := testing.AllocsPerRun(20, func() {
				if a := c.Execute(p, txn); !a.Committed {
					t.Errorf("uncontended attempt aborted: %v", a.Reason)
				}
			})
			records, cells := txn.NumOps(), txn.NumWriteCells()
			t.Logf("%d records, %d written cells: %.0f allocs per attempt", records, cells, got)
			if budget := 4.0; got > budget {
				t.Errorf("%.0f allocs for an attempt of %d records writing %d cells, budget %.0f", got, records, cells, budget)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLocalizedAttemptSmallBank(b *testing.B) {
	benchLocalized(b, smallbank.New(smallbank.Config{Accounts: 10_000}), "")
}

func BenchmarkLocalizedAttemptNewOrder(b *testing.B) {
	cfg := tpcc.DefaultConfig()
	cfg.Warehouses = 4
	benchLocalized(b, tpcc.New(cfg), "NewOrder")
}

// installFixture is an object of a 100-byte, five-cell record and a
// fetched image of it.
func installFixture() (*object, []byte, layout.Header) {
	lay := layout.NewRecord(layout.Schema{ID: 1, Name: "r", CellSizes: []int{8, 8, 4, 16, 64}})
	data := make([]byte, lay.Size())
	var h layout.Header
	layout.EncodeHeader(data, h)
	return newObject(1, 0, 0, lay, nil), data, h
}

// TestInstallAllocatesAChunkNotABlock: the base block of a fetched
// 100-byte record is cut from the compute node's current chunk — 327 to
// a chunk — and a block over a quarter chunk is made on its own, leaving
// the chunk where it was.
func TestInstallAllocatesAChunkNotABlock(t *testing.T) {
	o, data, h := installFixture()
	var chunks engine.Arena
	const batch = 1000
	got := testing.AllocsPerRun(10, func() {
		for i := 0; i < batch; i++ {
			o.install(&chunks, data, &h, 0)
		}
	}) / batch
	t.Logf("%.4f allocs per install", got)
	if got > 0.05 {
		t.Errorf("%.4f allocs per install of a 100-byte record, want at most 0.05", got)
	}

	big := layout.NewRecord(layout.Schema{ID: 2, Name: "big", CellSizes: []int{8, engine.ArenaChunk / 4}})
	bo, bdata := newObject(2, 0, 0, big, nil), make([]byte, big.Size())
	chunks = engine.Arena{}
	o.install(&chunks, data, &h, 0)
	bo.install(&chunks, bdata, &h, 0)
	last := o.base[4]
	o.install(&chunks, data, &h, 0)
	if end := unsafe.Add(unsafe.Pointer(&last[0]), len(last)); end != unsafe.Pointer(&o.base[0][0]) {
		t.Error("a block over a quarter chunk was cut from the node's chunk, or ended it")
	}
}

func BenchmarkInstall(b *testing.B) {
	o, data, h := installFixture()
	var chunks engine.Arena
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.install(&chunks, data, &h, 0)
	}
}
