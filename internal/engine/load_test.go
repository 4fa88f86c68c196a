package engine_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/rdma"
	"crest/internal/sim"
	"crest/internal/workload/ycsb"
)

// packed lays a record out as its cells back to back.
type packed struct{}

func (packed) AddTable(sc layout.Schema) int { return sc.DataBytes() }

func (packed) Encode(buf []byte, _ layout.TableID, _ layout.Key, cells [][]byte) {
	for _, c := range cells {
		buf = buf[copy(buf, c):]
	}
}

// TestDenseLoadAllocs: creating quick-profile YCSB's table, loading its
// 20 000 records and publishing them in the index allocates per table,
// never per record. Its keys arrive 0, 1, 2, … in row order, so the
// table's directory holds them by arithmetic; a per-record map or
// pending list, preallocated or grown, costs at least 8 bytes a record
// and breaks the byte bound.
func TestDenseLoadAllocs(t *testing.T) {
	const records = 20_000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := ycsb.DefaultConfig()
	cfg.Records = records
	gen := ycsb.New(cfg)
	env := sim.NewEnv(1)
	pool := memnode.NewPool(rdma.NewFabric(env, rdma.DefaultParams()), 1, 8<<20, 0)
	defer pool.Close()
	db := engine.NewDB(pool)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, def := range gen.Tables() {
		db.CreateTableAs(packed{}, def.Schema, def.Capacity)
	}
	gen.Load(func(table layout.TableID, key layout.Key, cells [][]byte) {
		db.Load(packed{}, table, key, cells)
	})
	err := db.FinishLoad()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}

	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d allocations, %d bytes for %d records", allocs, bytes, records)
	for _, def := range gen.Tables() {
		if tab := db.Table(def.Schema.ID); tab.NumLoaded() != records || !tab.Dense() {
			t.Fatalf("table %q: %d records loaded, dense %v", def.Schema.Name, tab.NumLoaded(), tab.Dense())
		}
	}
	if allocs > 24 || bytes > records {
		t.Errorf("%d allocations and %d bytes for %d records, budget 24 and %d", allocs, bytes, records, records)
	}
}
