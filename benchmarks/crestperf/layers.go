package main

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"crest/internal/bench"
	"crest/internal/engine"
	"crest/internal/hashindex"
	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/placement"
	"crest/internal/rdma"
	"crest/internal/scenario"
	"crest/internal/sim"
	"crest/internal/workload"
)

// timeOps times loop with package testing's own benchmark scheme: a
// growing b.N until one round lasts a second, allocations counted over
// the timed part.
func timeOps(loop func(b *testing.B)) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		loop(b)
	})
}

// BenchmarkResult's own NsPerOp and AllocsPerOp round to whole numbers,
// which a 2 ns operation or 0.4 allocations per operation do not survive.
func nsPerOp(r testing.BenchmarkResult) float64     { return float64(r.T) / float64(r.N) }
func allocsPerOp(r testing.BenchmarkResult) float64 { return float64(r.MemAllocs) / float64(r.N) }
func bytesPerOp(r testing.BenchmarkResult) float64  { return float64(r.MemBytes) / float64(r.N) }

// must turns a failure inside a micro-driver into a panic: the drivers
// run fixed, uncontended inputs, so any error is a broken layer, not
// bad input, and the benchmark has no result to print.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// sink keeps the compiler from discarding pure calls.
var sink uint64

// microDriver times one layer's public functions in a loop and
// returns the per-layer metrics it produced.
type microDriver struct {
	layer string
	run   func() map[string]float64
}

var microDrivers = []microDriver{
	{"memnode", microMemnode}, // first: see microMemnode
	{"sim", microSim},
	{"rdma", microRDMA},
	{"layout", microLayout},
	{"hashindex", microHashIndex},
	{"placement", microPlacement},
	{"core", func() map[string]float64 {
		c := microAttempt(bench.CREST)
		return map[string]float64{"core.attempt_ns": nsPerOp(c), "core.attempt_allocs": allocsPerOp(c), "core.attempt_bytes": bytesPerOp(c)}
	}},
	{"ford", func() map[string]float64 {
		c := microAttempt(bench.FORD)
		return map[string]float64{"ford.attempt_ns": nsPerOp(c), "ford.attempt_allocs": allocsPerOp(c)}
	}},
	{"motor", func() map[string]float64 {
		c := microAttempt(bench.Motor)
		return map[string]float64{"motor.attempt_ns": nsPerOp(c), "motor.attempt_allocs": allocsPerOp(c)}
	}},
	{"workload", microWorkload},
	{"scenario", func() map[string]float64 {
		c := timeOps(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := scenario.Parse(strings.NewReader(scenario.DriftDemoText), "drift-demo")
				must(err)
			}
		})
		return map[string]float64{"scenario.parse_us": nsPerOp(c) / 1e3}
	}},
}

// runMicros runs every micro-driver, each under a layer.<name> span,
// and merges their metrics into out.
func runMicros(spans *spanLog, out map[string]float64) {
	for _, m := range microDrivers {
		end := spans.begin("layer." + m.layer)
		for k, v := range m.run() {
			out[k] = v
		}
		end()
	}
}

func microSim() map[string]float64 {
	// 64 processes sleeping in staggered loops, so every dispatch pays
	// a real heap sift (the shape of sim's own BenchmarkDispatch).
	dispatch := timeOps(func(b *testing.B) {
		env := sim.NewEnv(1)
		per := b.N/64 + 1
		for i := 0; i < 64; i++ {
			gap := sim.Duration(1+i%7) * sim.Microsecond
			env.Spawn("sleeper", func(p *sim.Proc) {
				for j := 0; j < per; j++ {
					p.Sleep(gap)
				}
			})
		}
		must(env.Run())
	})
	// One Wait/Wake pair: the waiter re-queues the instant it is woken.
	waitqueue := timeOps(func(b *testing.B) {
		n := b.N
		env := sim.NewEnv(1)
		q := sim.NewWaitQueue("micro")
		env.Spawn("waiter", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				q.Wait(p)
			}
		})
		env.Spawn("waker", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(sim.Microsecond)
				q.Wake(1)
			}
		})
		must(env.Run())
	})
	callat := timeOps(func(b *testing.B) {
		env := sim.NewEnv(1)
		fn := func() { sink++ }
		for i := 0; i < b.N; i++ {
			env.CallAt(sim.Time(i%1024), fn)
		}
		must(env.Run())
	})
	// One cross-partition Send per window: outbox append, barrier
	// injection and the delivery dispatch on the far side.
	mailbox := timeOps(func(b *testing.B) {
		n := b.N
		const lookahead = sim.Microsecond
		w := sim.NewWorld(1, 2, lookahead)
		fn := func() { sink++ }
		w.Env(0).Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Env().Send(w.Env(1), p.Now().Add(2*lookahead), fn)
				p.Sleep(lookahead)
			}
		})
		must(w.Run())
	})
	return map[string]float64{
		"sim.dispatch_ns":     nsPerOp(dispatch),
		"sim.dispatch_allocs": allocsPerOp(dispatch),
		"sim.waitqueue_ns":    nsPerOp(waitqueue),
		"sim.callat_ns":       nsPerOp(callat),
		"sim.mailbox_send_ns": nsPerOp(mailbox),
	}
}

func microRDMA() map[string]float64 {
	read := timeOps(func(b *testing.B) {
		n := b.N
		env := sim.NewEnv(1)
		f := rdma.NewFabric(env, rdma.DefaultParams())
		qp := f.Connect(f.Register("mn0", 4096))
		env.Spawn("micro", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				_, err := qp.Read(p, 0, 64)
				must(err)
			}
		})
		must(env.Run())
	})
	// A doorbell batch of four CAS verbs: the shape of a lock-acquire
	// round in every engine. Odd posts lock, even posts unlock.
	cas := timeOps(func(b *testing.B) {
		n := b.N
		env := sim.NewEnv(1)
		f := rdma.NewFabric(env, rdma.DefaultParams())
		qp := f.Connect(f.Register("mn0", 4096))
		ops := make([]rdma.Op, 4)
		env.Spawn("micro", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				held := uint64(i & 1)
				for j := range ops {
					ops[j] = rdma.Op{Kind: rdma.OpCAS, Off: uint64(j * 64), Compare: held, Swap: held ^ 1}
				}
				res, err := qp.Post(p, ops)
				must(err)
				if !res[0].OK {
					panic("CAS lost on an uncontended word")
				}
			}
		})
		must(env.Run())
	})
	// Two one-write batches to two nodes in one round trip: the shape
	// of a synchronously replicated update.
	multi := timeOps(func(b *testing.B) {
		n := b.N
		env := sim.NewEnv(1)
		f := rdma.NewFabric(env, rdma.DefaultParams())
		payload := make([]byte, 64)
		batches := []rdma.Batch{
			{QP: f.Connect(f.Register("mn0", 4096)), Ops: []rdma.Op{{Kind: rdma.OpWrite, Data: payload}}},
			{QP: f.Connect(f.Register("mn1", 4096)), Ops: []rdma.Op{{Kind: rdma.OpWrite, Data: payload}}},
		}
		env.Spawn("micro", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				_, err := rdma.PostMulti(p, batches)
				must(err)
			}
		})
		must(env.Run())
	})
	return map[string]float64{
		"rdma.read_ns":      nsPerOp(read),
		"rdma.cas_batch_ns": nsPerOp(cas),
		"rdma.postmulti_ns": nsPerOp(multi),
		"rdma.post_allocs":  allocsPerOp(multi),
	}
}

func microLayout() map[string]float64 {
	codec := timeOps(func(b *testing.B) {
		buf := make([]byte, layout.HeaderSize)
		h := layout.Header{Key: 7, TableID: 3}
		for i := 0; i < b.N; i++ {
			h.Lock = uint64(i)
			layout.EncodeHeader(buf, h)
			sink += layout.DecodeHeader(buf).Lock
		}
	})
	mask := timeOps(func(b *testing.B) {
		cells := []int{0, 2, 5}
		for i := 0; i < b.N; i++ {
			cells[0] = i & 1
			sink += layout.LockMask(cells)
		}
	})
	return map[string]float64{
		"layout.header_codec_ns": nsPerOp(codec),
		"layout.lockmask_ns":     nsPerOp(mask),
	}
}

func microHashIndex() map[string]float64 {
	const keys = 4096
	const table = layout.TableID(1)
	lookup := timeOps(func(b *testing.B) {
		n := b.N
		env := sim.NewEnv(1)
		f := rdma.NewFabric(env, rdma.DefaultParams())
		pool := memnode.NewPool(f, 2, 1<<20, 1)
		ix := hashindex.New(pool, table, keys)
		entries := make(map[layout.Key]uint64, keys)
		for k := 0; k < keys; k++ {
			entries[layout.Key(k)] = uint64(64 * (k + 1))
		}
		must(ix.BulkLoad(pool, entries))
		qp := f.Connect(pool.GroupNodes(0)[0].Region)
		b.ResetTimer()
		env.Spawn("micro", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				_, found, err := ix.Lookup(p, qp, layout.Key(i%keys))
				must(err)
				if !found {
					panic("loaded key not found")
				}
			}
		})
		must(env.Run())
	})
	cache := hashindex.NewAddrCache()
	for k := 0; k < keys; k++ {
		cache.Put(table, layout.Key(k), uint64(k))
	}
	get := timeOps(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			off, _ := cache.Get(table, layout.Key(i%keys))
			sink += off
		}
	})
	return map[string]float64{
		"hashindex.lookup_ns":        nsPerOp(lookup),
		"hashindex.addrcache_get_ns": nsPerOp(get),
	}
}

// microMemnode builds ycsb-cold's memory pool and record heaps once:
// the part of that workload's set-up that is memnode's alone. It is a
// single shot, and the first thing the traced pass does, because only
// then does it see what a fresh process sees — untouched pages from the
// OS; once anything has grown and freed the heap it times the Go
// allocator clearing recycled spans instead (160-300 ms against 1-6).
func microMemnode() map[string]float64 {
	defs := ycsbCold()().Tables()
	size := bench.PoolBytes(defs, 120)
	t0 := time.Now()
	f := rdma.NewFabric(sim.NewEnv(1), rdma.DefaultParams())
	pool, err := memnode.NewShardedPool(f, 1, 2, size, 1, placement.Hash{})
	must(err)
	for _, def := range defs {
		rec := layout.NewRecord(def.Schema.Normalize())
		sink += pool.AllocHeap(rec.Size(), def.Capacity).Base
	}
	return map[string]float64{"memnode.pool_setup_ms": float64(time.Since(t0)) / 1e6}
}

func microPlacement() map[string]float64 {
	shard := func(pol placement.Policy) float64 {
		return nsPerOp(timeOps(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += uint64(pol.Shard(1, layout.Key(i), 4))
			}
		}))
	}
	hot := make([]placement.HotKey, 16)
	for i := range hot {
		hot[i] = placement.HotKey{Table: 1, Key: layout.Key(i)}
	}
	return map[string]float64{
		"placement.shard_ns":         shard(placement.Hash{}),
		"placement.hotspot_shard_ns": shard(placement.NewHotspot(hot)),
	}
}

// microAttempt times one coordinator executing uncontended SmallBank
// transactions back to back through the public System / ComputeNode /
// Coordinator surface, as bench's one-transaction probe does.
func microAttempt(kind bench.SystemKind) testing.BenchmarkResult {
	gen := smallbank(0)()
	env := sim.NewEnv(1)
	fabric := rdma.NewFabric(env, rdma.DefaultParams())
	pool := memnode.NewPool(fabric, 2, bench.PoolBytes(gen.Tables(), 1), 1)
	sys, err := bench.NewSystem(kind, engine.NewDB(pool))
	must(err)
	for _, def := range gen.Tables() {
		sys.CreateTable(def.Schema, def.Capacity)
	}
	gen.Load(sys.Load)
	must(sys.FinishLoad())
	node := sys.NewComputeNode(0)
	node.WarmCache()
	coord := node.NewCoordinator(0)
	return timeOps(func(b *testing.B) {
		n := b.N
		env.Spawn("micro", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				if a := coord.Execute(p, gen.Next(p.Rand())); !a.Committed {
					panic(fmt.Sprintf("uncontended %s attempt aborted: %v", kind, a.Reason))
				}
			}
		})
		must(env.Run())
	})
}

func microWorkload() map[string]float64 {
	next := func(gen workload.Generator) float64 {
		rng := rand.New(rand.NewSource(1))
		return nsPerOp(timeOps(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += uint64(len(gen.Next(rng).Blocks))
			}
		}))
	}
	picker := workload.NewKeyPicker(bench.Quick().SBAccounts, 0.9)
	rng := rand.New(rand.NewSource(1))
	pick := timeOps(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += uint64(picker.Pick(rng))
		}
	})
	// ycsb-cold's load is the only one large enough to matter.
	cold := ycsbCold()()
	load := timeOps(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cold.Load(func(_ layout.TableID, key layout.Key, cells [][]byte) { sink += uint64(key) + uint64(len(cells)) })
		}
	})
	return map[string]float64{
		"workload.smallbank.next_ns": next(smallbank(0.9)()),
		"workload.ycsb.next_ns":      next(cold),
		"workload.tpcc.next_ns":      next(tpcc40()()),
		"workload.zipf_pick_ns":      nsPerOp(pick),
		"workload.load_ms":           nsPerOp(load) / 1e6,
	}
}
