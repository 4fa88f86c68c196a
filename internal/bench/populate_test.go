package bench

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"crest/internal/layout"
	"crest/internal/rdma"
	"crest/internal/workload"
)

// recordPopulate replaces the load helper's populate with one that
// records, per region id, the pages each call covers, for the rest of
// the test, which runs on two Ps at least: load starts no helper on one.
func recordPopulate(t *testing.T) func() map[int]map[uint64]bool {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Cleanup(func() { runtime.GOMAXPROCS(1) })
		runtime.GOMAXPROCS(2)
	}
	var mu sync.Mutex
	pages := map[int]map[uint64]bool{}
	old := populate
	populate = func(r *rdma.Region, off uint64, n int) {
		mu.Lock()
		defer mu.Unlock()
		if pages[r.ID()] == nil {
			pages[r.ID()] = map[uint64]bool{}
		}
		for p := off / pageSize; p <= (off+uint64(n)-1)/pageSize; p++ {
			pages[r.ID()][p] = true
		}
	}
	t.Cleanup(func() { populate = old })
	return func() map[int]map[uint64]bool {
		mu.Lock()
		defer mu.Unlock()
		return pages
	}
}

// TestLoadPopulatesOnlyWrittenPages: on a range-placed pool of four
// groups of three nodes, where each node holds a different part of
// every table, the load helper populates on each node exactly the
// pages that node's rows and hash indexes occupy.
func TestLoadPopulatesOnlyWrittenPages(t *testing.T) {
	populated := recordPopulate(t)
	cfg := Config{System: CREST, Workload: tinySmallBank, Shards: 4, MemNodes: 3, Replicas: 1, Placement: "range"}.WithDefaults()
	gen := cfg.Workload()
	d, err := Deploy(cfg, gen.Tables(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.load(gen)

	want := map[int]map[uint64]bool{}
	occupy := func(node int, off uint64, n int) {
		if want[node] == nil {
			want[node] = map[uint64]bool{}
		}
		for p := off / pageSize; p <= (off+uint64(n)-1)/pageSize; p++ {
			want[node][p] = true
		}
	}
	for _, def := range gen.Tables() {
		tb := d.db.Table(def.Schema.ID)
		owners := map[int]bool{}
		for row := 0; row < def.Capacity; row++ {
			key := layout.Key(row)
			for _, n := range d.Pool.ReplicaNodes(def.Schema.ID, key) {
				occupy(n.ID, tb.Heap.SlotOff(row), tb.Heap.RecSize)
			}
			owners[d.Pool.ShardOf(def.Schema.ID, key)] = true
		}
		if len(owners) != cfg.Shards {
			t.Fatalf("table %s is on %d of %d groups; the test wants every group to hold part of it", def.Schema.Name, len(owners), cfg.Shards)
		}
		for g := range owners {
			for _, n := range d.Pool.GroupNodes(g) {
				occupy(n.ID, tb.Index.Base(), tb.Index.SizeBytes())
			}
		}
	}
	got := populated()
	for _, n := range d.Pool.Nodes() {
		var missing, extra int
		for p := range want[n.ID] {
			if !got[n.ID][p] {
				missing++
			}
		}
		for p := range got[n.ID] {
			if !want[n.ID][p] {
				extra++
			}
		}
		if missing > 0 || extra > 0 {
			t.Errorf("node %d: %d pages occupied, %d populated: %d occupied pages not populated, %d populated pages not occupied",
				n.ID, len(want[n.ID]), len(got[n.ID]), missing, extra)
		}
	}
}

// strayGen loads the first half of its first table's rows in key
// order, then a key out of order, then panics.
type strayGen struct{ workload.Generator }

func (g strayGen) Load(fn func(layout.TableID, layout.Key, [][]byte)) {
	def := g.Tables()[0]
	cells := make([][]byte, len(def.Schema.CellSizes))
	for i, n := range def.Schema.CellSizes {
		cells[i] = make([]byte, n)
	}
	for k := 0; k < def.Capacity/2; k++ {
		fn(def.Schema.ID, layout.Key(k), cells)
	}
	fn(def.Schema.ID, layout.Key(def.Capacity-1), cells)
	panic("strayGen: load aborted")
}

// settleGoroutines waits until no more than want goroutines run and
// returns how many do: one that has signalled its end may still be on
// its way out. (Fewer may run than before: one the runtime or an
// earlier test started can end meanwhile.)
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestLoadHelperEndsWithLoad: the helper has exited once load returns,
// also when the loader panics; it populates no index of a table whose
// keys strayed from row order, and nothing of a table never loaded.
// Run leaves no goroutine behind either.
func TestLoadHelperEndsWithLoad(t *testing.T) {
	populated := recordPopulate(t)
	base := runtime.NumGoroutine()
	cfg := shortCfg(CREST, tinySmallBank).WithDefaults()
	gen := strayGen{cfg.Workload()}
	d, err := Deploy(cfg, gen.Tables(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	func() {
		defer func() {
			if r := recover(); r != "strayGen: load aborted" {
				t.Errorf("load panicked with %v, want the generator's panic", r)
			}
		}()
		d.load(gen)
	}()
	if n := settleGoroutines(base); n > base {
		t.Errorf("%d goroutines after the load, %d before", n, base)
	}
	strayed, unloaded := d.db.Table(gen.Tables()[0].Schema.ID), d.db.Table(gen.Tables()[1].Schema.ID)
	indexPage := (strayed.Index.Base() + uint64(strayed.Index.SizeBytes()/2)) / pageSize
	unloadedPage := (unloaded.Heap.Base + uint64(unloaded.Heap.Count*unloaded.Heap.RecSize/2)) / pageSize
	for id, pages := range populated() {
		if pages[indexPage] {
			t.Errorf("region %d: the helper populated the index of a table whose keys strayed", id)
		}
		if pages[unloadedPage] {
			t.Errorf("region %d: the helper populated rows of a table never loaded", id)
		}
	}

	if _, err := Run(shortCfg(CREST, tinySmallBank)); err != nil {
		t.Fatal(err)
	}
	if n := settleGoroutines(base); n > base {
		t.Errorf("%d goroutines after Run, %d before", n, base)
	}
}
