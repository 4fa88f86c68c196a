package engine

import (
	"fmt"
	"testing"

	"crest/internal/hashindex"
	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/rdma"
	"crest/internal/sim"
)

func newTestDB(t testing.TB) (*sim.Env, *DB) {
	t.Helper()
	env := sim.NewEnv(1)
	params := rdma.DefaultParams()
	params.JitterPct = 0
	fabric := rdma.NewFabric(env, params)
	pool := memnode.NewPool(fabric, 2, 1<<20, 1)
	return env, NewDB(pool)
}

func testSchema() layout.Schema {
	return layout.Schema{ID: 7, Name: "t", CellSizes: []int{8, 8}}
}

func TestDBCreateAndLoad(t *testing.T) {
	_, db := newTestDB(t)
	tab := db.CreateTable(testSchema(), 64, 8)
	if db.Table(7) != tab {
		t.Fatal("Table lookup")
	}
	db.LoadRecord(tab, 5, func(buf []byte) { buf[0] = 0xAA })
	if tab.NumLoaded() != 1 {
		t.Fatalf("NumLoaded = %d", tab.NumLoaded())
	}
	off, ok := tab.AddrOf(5)
	if !ok {
		t.Fatal("AddrOf miss")
	}
	// Every replica node received the record bytes.
	for _, n := range db.Pool.ReplicaNodes(7, 5) {
		if n.Region.Bytes()[off] != 0xAA {
			t.Fatalf("node %d missing record", n.ID)
		}
	}
	seen := 0
	tab.Keys(func(k layout.Key, o uint64) {
		if k != 5 || o != off {
			t.Fatalf("Keys gave %d/%d", k, o)
		}
		seen++
	})
	if seen != 1 {
		t.Fatal("Keys iteration")
	}
}

func TestDBDuplicateTablePanics(t *testing.T) {
	_, db := newTestDB(t)
	db.CreateTable(testSchema(), 64, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate table")
		}
	}()
	db.CreateTable(testSchema(), 64, 8)
}

// TestDBDuplicateLoadPanics: a key loaded twice panics with the same
// message whether the table's directory holds it by arithmetic (keys
// loaded 0, 1, … in row order) or in its map.
func TestDBDuplicateLoadPanics(t *testing.T) {
	for name, keys := range map[string][]layout.Key{"dense": {0, 1, 0}, "map": {1, 2, 1}} {
		t.Run(name, func(t *testing.T) {
			_, db := newTestDB(t)
			tab := db.CreateTable(testSchema(), 64, 8)
			for _, k := range keys[:len(keys)-1] {
				db.LoadRecord(tab, k, func([]byte) {})
			}
			if dense := name == "dense"; tab.Dense() != dense {
				t.Fatalf("Dense() = %v after loading %v", tab.Dense(), keys[:len(keys)-1])
			}
			defer func() {
				want := fmt.Sprintf("engine: duplicate load of key %d in table %q", keys[0], "t")
				if got := recover(); got != want {
					t.Fatalf("panic %v, want %q", got, want)
				}
				if tab.NumLoaded() != len(keys)-1 {
					t.Fatalf("NumLoaded = %d after a refused load", tab.NumLoaded())
				}
			}()
			db.LoadRecord(tab, keys[len(keys)-1], func([]byte) {})
		})
	}
}

func TestDBFullTablePanics(t *testing.T) {
	_, db := newTestDB(t)
	tab := db.CreateTable(testSchema(), 64, 2)
	db.LoadRecord(tab, 1, func([]byte) {})
	db.LoadRecord(tab, 2, func([]byte) {})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on full table")
		}
	}()
	db.LoadRecord(tab, 3, func([]byte) {})
}

func TestClaimSlot(t *testing.T) {
	_, db := newTestDB(t)
	tab := db.CreateTable(testSchema(), 64, 2)
	db.LoadRecord(tab, 1, func([]byte) {})
	off, err := tab.ClaimSlot(9)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := tab.AddrOf(9); !ok || got != off {
		t.Fatal("claimed slot not registered")
	}
	if _, err := tab.ClaimSlot(9); err == nil {
		t.Fatal("duplicate claim accepted")
	}
	if _, err := tab.ClaimSlot(10); err == nil {
		t.Fatal("claim beyond capacity accepted")
	}
}

func TestResolveAddrCacheAndIndex(t *testing.T) {
	env, db := newTestDB(t)
	tab := db.CreateTable(testSchema(), 64, 8)
	db.LoadRecord(tab, 3, func([]byte) {})
	if err := db.FinishLoad(); err != nil {
		t.Fatal(err)
	}
	cache := hashindex.NewAddrCache()
	env.Spawn("r", func(p *sim.Proc) {
		qp := db.Fabric.Connect(db.Pool.PrimaryOf(7, 3).Region)
		before := db.Fabric.Stats()
		off1, err := db.ResolveAddr(p, cache, qp, 7, 3)
		if err != nil {
			t.Error(err)
		}
		if db.Fabric.Stats().Sub(before).Reads == 0 {
			t.Error("cold resolve issued no index READ")
		}
		mid := db.Fabric.Stats()
		off2, err := db.ResolveAddr(p, cache, qp, 7, 3)
		if err != nil || off2 != off1 {
			t.Error("cached resolve mismatch")
		}
		if db.Fabric.Stats().Sub(mid).Reads != 0 {
			t.Error("cached resolve issued a READ")
		}
		if _, err := db.ResolveAddr(p, cache, qp, 7, 99); err == nil {
			t.Error("missing key resolved")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWarmCacheLoadsEverything(t *testing.T) {
	_, db := newTestDB(t)
	tab := db.CreateTable(testSchema(), 64, 8)
	for k := layout.Key(0); k < 4; k++ {
		db.LoadRecord(tab, k, func([]byte) {})
	}
	cache := hashindex.NewAddrCache()
	db.WarmCache(cache)
	if cache.Len() != 4 {
		t.Fatalf("warm cache has %d entries", cache.Len())
	}
}

// rawLayout lays a record out as its cells back to back.
type rawLayout struct{}

func (rawLayout) AddTable(sc layout.Schema) int { return sc.DataBytes() }

func (rawLayout) Encode(buf []byte, _ layout.TableID, _ layout.Key, cells [][]byte) {
	for _, c := range cells {
		buf = buf[copy(buf, c):]
	}
}

// TestLoadAllocatesNothingPerRecord: Load encodes into the first
// replica's slot and copies it to the others; the slot and the replica
// list are there already, and keys loaded in row order take no room in
// the table's directory.
func TestLoadAllocatesNothingPerRecord(t *testing.T) {
	_, db := newTestDB(t)
	db.CreateTableAs(rawLayout{}, testSchema(), 512)
	cells := [][]byte{{1, 2, 3, 4, 5, 6, 7, 8}, {8, 7, 6, 5, 4, 3, 2, 1}}
	key := layout.Key(0)
	got := testing.AllocsPerRun(4, func() {
		for i := 0; i < 100; i++ {
			db.Load(rawLayout{}, 7, key, cells)
			key++
		}
	})
	if got != 0 {
		t.Errorf("%.0f allocations per 100 records loaded", got)
	}
	tab := db.Table(7)
	off, _ := tab.AddrOf(42)
	for _, n := range db.Pool.ReplicaNodes(7, 42) {
		if rec := n.Region.Bytes()[off : off+16]; string(rec) != string(cells[0])+string(cells[1]) {
			t.Errorf("node %d holds %v for a loaded record", n.ID, rec)
		}
	}
}

// TestWarmCacheIsAViewAndLearningIsPrivate: warming copies nothing and
// closes the table to loads; a cache that was not warmed still misses to
// the index and learns; what one node's cache learns about a row
// claimed at run time, another's does not see.
func TestWarmCacheIsAViewAndLearningIsPrivate(t *testing.T) {
	env, db := newTestDB(t)
	tab := db.CreateTable(testSchema(), 64, 8)
	for k := layout.Key(0); k < 4; k++ {
		db.LoadRecord(tab, k, func([]byte) {})
	}
	if err := db.FinishLoad(); err != nil {
		t.Fatal(err)
	}
	cold, nodeA, nodeB := hashindex.NewAddrCache(), hashindex.NewAddrCache(), hashindex.NewAddrCache()
	if got := testing.AllocsPerRun(10, func() { db.WarmCache(nodeA) }); got > 1 {
		t.Errorf("WarmCache allocated %.0f times for one table of 4 records", got)
	}
	db.WarmCache(nodeB)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("LoadRecord into a table a cache was warmed from did not panic")
			}
		}()
		db.LoadRecord(tab, 50, func([]byte) {})
	}()
	env.Spawn("r", func(p *sim.Proc) {
		qp := db.Fabric.Connect(db.Pool.PrimaryOf(7, 3).Region)
		reads := func(c *hashindex.AddrCache, key layout.Key) uint64 {
			before := db.Fabric.Stats()
			if _, err := db.ResolveAddr(p, c, qp, 7, key); err != nil {
				t.Error(err)
			}
			return db.Fabric.Stats().Sub(before).Reads
		}
		if reads(nodeA, 3) != 0 {
			t.Error("a warmed cache went to the index for a loaded record")
		}
		if reads(cold, 3) == 0 || reads(cold, 3) != 0 || cold.Len() != 1 {
			t.Errorf("an unwarmed cache did not miss once and then learn (Len %d)", cold.Len())
		}
		// A row claimed and published at run time, as core.InsertRow does.
		off, err := tab.ClaimSlot(9)
		if err != nil {
			t.Error(err)
		}
		qp9 := db.Fabric.Connect(db.Pool.PrimaryOf(7, 9).Region)
		if err := tab.Index.InsertAll(p, db.Fabric, db.Pool, 9, off); err != nil {
			t.Error(err)
		}
		if _, hit := nodeA.Get(7, 9); hit {
			t.Error("a claimed slot showed up in a warm view before anyone looked it up")
		}
		if got, err := db.ResolveAddr(p, nodeA, qp9, 7, 9); err != nil || got != off {
			t.Errorf("resolve of the inserted row = (%d, %v), want %d", got, err, off)
		}
		if _, hit := nodeB.Get(7, 9); hit {
			t.Error("node B sees what node A learned")
		}
		off0, _ := tab.AddrOf(0)
		nodeA.Put(7, 0, off0)
		if nodeA.Len() != 5 || nodeB.Len() != 4 {
			t.Errorf("Len = %d and %d, want 5 and 4", nodeA.Len(), nodeB.Len())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQPCacheReuses(t *testing.T) {
	_, db := newTestDB(t)
	c := NewQPCache(db.Fabric)
	r := db.Pool.Nodes()[0].Region
	if c.Get(r) != c.Get(r) {
		t.Fatal("QP not reused")
	}
	if c.Get(r) == c.Get(db.Pool.Nodes()[1].Region) {
		t.Fatal("distinct regions share a QP")
	}
}

func TestAttemptTotal(t *testing.T) {
	a := Attempt{Exec: 10, Validate: 5, Commit: 3}
	if a.Total() != 18 {
		t.Fatalf("Total = %v", a.Total())
	}
}
