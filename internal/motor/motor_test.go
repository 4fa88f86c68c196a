package motor

import (
	"encoding/binary"
	"testing"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/rdma"
	"crest/internal/sim"
)

type fixture struct {
	env *sim.Env
	sys *engine.StrictSystem[rec]
	cns []engine.ComputeNode
}

func newFixture(t *testing.T, mns, cnCount, replicas, records int, history bool) *fixture {
	t.Helper()
	env := sim.NewEnv(11)
	params := rdma.DefaultParams()
	params.JitterPct = 0
	fabric := rdma.NewFabric(env, params)
	pool := memnode.NewPool(fabric, mns, 32<<20, replicas)
	db := engine.NewDB(pool)
	if history {
		db.Attach(engine.Observers{History: engine.NewHistory()}, env, 0)
	}
	sys := New(db)
	sys.CreateTable(layout.Schema{ID: 1, Name: "kv", CellSizes: []int{8, 8}}, records+16)
	for k := 0; k < records; k++ {
		sys.Load(1, layout.Key(k), [][]byte{word(uint64(k)), word(uint64(k))})
	}
	if err := sys.FinishLoad(); err != nil {
		t.Fatal(err)
	}
	f := &fixture{env: env, sys: sys}
	for i := 0; i < cnCount; i++ {
		cn := sys.NewComputeNode(i)
		cn.WarmCache()
		f.cns = append(f.cns, cn)
	}
	return f
}

func word(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func incTxn(key layout.Key, cell int, delta uint64) *engine.Txn {
	t := &engine.Txn{Label: "inc"}
	t.Blocks = []engine.Block{{Ops: []engine.Op{{
		Table:      1,
		Key:        key,
		ReadCells:  []int{cell},
		WriteCells: []int{cell},
		Hook: func(_ any, read [][]byte) [][]byte {
			return [][]byte{word(binary.LittleEndian.Uint64(read[0]) + delta)}
		},
	}}}}
	return t
}

func readTxn(keys []layout.Key, out *[]uint64) *engine.Txn {
	t := &engine.Txn{Label: "read", ReadOnly: true}
	var ops []engine.Op
	for _, k := range keys {
		ops = append(ops, engine.Op{
			Table: 1, Key: k, ReadCells: []int{0},
			Hook: func(_ any, read [][]byte) [][]byte {
				*out = append(*out, binary.LittleEndian.Uint64(read[0]))
				return nil
			},
		})
	}
	t.Blocks = []engine.Block{{Ops: ops}}
	return t
}

// newestVersion scans a record's version table host-side.
func (f *fixture) newestVersion(node *memnode.Node, key layout.Key) (ts, val uint64) {
	tab := f.sys.DB().Table(1)
	off, _ := tab.AddrOf(key)
	lay := layout.NewMotorRecord(tab.Schema)
	buf := node.Region.Bytes()
	best := -1
	for i := 0; i < layout.MotorSlots; i++ {
		valid, sts := layout.UnpackSlotMeta(binary.LittleEndian.Uint64(buf[off+uint64(lay.SlotMetaOff(i)):]))
		if valid && (best == -1 || sts > ts) {
			best, ts = i, sts
		}
	}
	val = binary.LittleEndian.Uint64(buf[off+uint64(lay.SlotCellOff(best, 0)):])
	return ts, val
}

func TestWriteCreatesNewVersion(t *testing.T) {
	f := newFixture(t, 2, 1, 0, 4, false)
	coord := f.cns[0].NewCoordinator(0)
	f.env.Spawn("c", func(p *sim.Proc) {
		if a := coord.Execute(p, incTxn(2, 0, 100)); !a.Committed {
			t.Errorf("abort: %v", a.Reason)
		}
	})
	if err := f.env.Run(); err != nil {
		t.Fatal(err)
	}
	primary := f.sys.DB().Pool.PrimaryOf(1, 2)
	ts, val := f.newestVersion(primary, 2)
	if val != 102 {
		t.Fatalf("newest version value = %d, want 102", val)
	}
	if ts == 0 {
		t.Fatal("commit did not advance version timestamp")
	}
	// The original version must survive in another slot (MVCC).
	tab := f.sys.DB().Table(1)
	off, _ := tab.AddrOf(2)
	lay := layout.NewMotorRecord(tab.Schema)
	buf := primary.Region.Bytes()
	foundOld := false
	for i := 0; i < layout.MotorSlots; i++ {
		valid, sts := layout.UnpackSlotMeta(binary.LittleEndian.Uint64(buf[off+uint64(lay.SlotMetaOff(i)):]))
		if valid && sts == 0 {
			if binary.LittleEndian.Uint64(buf[off+uint64(lay.SlotCellOff(i, 0)):]) == 2 {
				foundOld = true
			}
		}
	}
	if !foundOld {
		t.Fatal("old version evicted despite free slots")
	}
}

func TestVersionTableRecyclesOldest(t *testing.T) {
	f := newFixture(t, 1, 1, 0, 2, false)
	coord := f.cns[0].NewCoordinator(0)
	f.env.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < layout.MotorSlots+3; i++ {
			if a := coord.Execute(p, incTxn(0, 0, 1)); !a.Committed {
				t.Errorf("abort: %v", a.Reason)
			}
		}
	})
	if err := f.env.Run(); err != nil {
		t.Fatal(err)
	}
	primary := f.sys.DB().Pool.PrimaryOf(1, 0)
	_, val := f.newestVersion(primary, 0)
	if val != uint64(layout.MotorSlots+3) {
		t.Fatalf("final value %d, want %d", val, layout.MotorSlots+3)
	}
}

func TestReadOnlySkipsValidationRTT(t *testing.T) {
	f := newFixture(t, 1, 1, 0, 4, false)
	coord := f.cns[0].NewCoordinator(0)
	var att engine.Attempt
	var v rdma.Stats
	f.env.Spawn("c", func(p *sim.Proc) {
		var out []uint64
		v0 := f.sys.DB().Fabric.Stats()
		att = coord.Execute(p, readTxn([]layout.Key{0, 1}, &out))
		v = f.sys.DB().Fabric.Stats().Sub(v0)
	})
	if err := f.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !att.Committed {
		t.Fatalf("abort: %v", att.Reason)
	}
	if att.Validate != 0 {
		t.Fatalf("read-only txn spent %v validating", att.Validate)
	}
	// One whole-record READ per record.
	if v.Reads != 2 {
		t.Fatalf("READs = %d, want 2", v.Reads)
	}
	if v.CASes != 0 || v.Writes != 0 {
		t.Fatalf("read-only txn issued writes: %+v", v)
	}
}

func TestReadersDoNotAbortAgainstCommittedWriters(t *testing.T) {
	// Unlike FORD, a Motor snapshot reader overlapping committed
	// writers succeeds: it reads the older version.
	f := newFixture(t, 1, 1, 0, 2, true)
	writer := f.cns[0].NewCoordinator(0)
	reader := f.cns[0].NewCoordinator(1)
	retry := engine.DefaultRetryPolicy()
	f.env.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			for attempt := 1; ; attempt++ {
				if a := writer.Execute(p, incTxn(0, 0, 1)); a.Committed {
					break
				}
				p.Sleep(retry.Backoff(attempt, p.Rand()))
			}
		}
	})
	committed := 0
	f.env.Spawn("reader", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			var out []uint64
			if a := reader.Execute(p, readTxn([]layout.Key{0, 1}, &out)); a.Committed {
				committed++
			}
			p.Sleep(time2())
		}
	})
	if err := f.env.Run(); err != nil {
		t.Fatal(err)
	}
	if committed < 8 {
		t.Fatalf("only %d of 10 snapshot reads committed", committed)
	}
	if err := f.sys.DB().Obs.History.Check(); err != nil {
		t.Fatalf("history not serializable: %v", err)
	}
}

func time2() sim.Duration { return 5 * sim.Microsecond }

func TestMixedReadersAndWritersSerializable(t *testing.T) {
	f := newFixture(t, 2, 2, 0, 8, true)
	retry := engine.DefaultRetryPolicy()
	for i := 0; i < 4; i++ {
		coord := f.cns[i%2].NewCoordinator(i)
		f.env.Spawn("w", func(p *sim.Proc) {
			for j := 0; j < 15; j++ {
				key := layout.Key(j % 3)
				for attempt := 1; ; attempt++ {
					if a := coord.Execute(p, incTxn(key, j%2, 1)); a.Committed {
						break
					}
					p.Sleep(retry.Backoff(attempt, p.Rand()))
				}
			}
		})
	}
	for i := 4; i < 8; i++ {
		coord := f.cns[i%2].NewCoordinator(i)
		f.env.Spawn("r", func(p *sim.Proc) {
			for j := 0; j < 15; j++ {
				var out []uint64
				coord.Execute(p, readTxn([]layout.Key{0, 1, 2}, &out))
				p.Sleep(3 * sim.Microsecond)
			}
		})
	}
	if err := f.env.Run(); err != nil {
		t.Fatal(err)
	}
	if err := f.sys.DB().Obs.History.Check(); err != nil {
		t.Fatalf("history not serializable: %v", err)
	}
}

func TestSnapshotTooOldAborts(t *testing.T) {
	// A reader that starts, then waits while MotorSlots+ newer
	// versions land, loses its snapshot.
	f := newFixture(t, 1, 1, 0, 2, false)
	writer := f.cns[0].NewCoordinator(0)
	reader := f.cns[0].NewCoordinator(1)
	var att engine.Attempt
	f.env.Spawn("reader", func(p *sim.Proc) {
		txn := &engine.Txn{Label: "late", ReadOnly: true}
		txn.Blocks = []engine.Block{
			{Ops: []engine.Op{{
				Table: 1, Key: 1, ReadCells: []int{0},
				Hook: func(_ any, _ [][]byte) [][]byte {
					p.Sleep(400 * sim.Microsecond) // let the writer burn the version table
					return nil
				},
			}}},
			{Ops: []engine.Op{{
				Table: 1, Key: 0, ReadCells: []int{0},
				Hook: func(_ any, _ [][]byte) [][]byte { return nil },
			}}},
		}
		att = reader.Execute(p, txn)
	})
	f.env.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		for i := 0; i < layout.MotorSlots+2; i++ {
			if a := writer.Execute(p, incTxn(0, 0, 1)); !a.Committed {
				t.Errorf("writer abort: %v", a.Reason)
			}
		}
	})
	if err := f.env.Run(); err != nil {
		t.Fatal(err)
	}
	if att.Committed {
		t.Fatal("reader with overwritten snapshot committed")
	}
	if att.Reason != engine.AbortValidation {
		t.Fatalf("reason = %v, want validation", att.Reason)
	}
}
