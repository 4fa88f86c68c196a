package hashindex

import (
	"math/rand"
	"testing"
	"testing/quick"

	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/rdma"
	"crest/internal/sim"
)

type fixture struct {
	env    *sim.Env
	fabric *rdma.Fabric
	pool   *memnode.Pool
	ix     *Index
}

func newFixture(mns, capacity int) *fixture {
	env := sim.NewEnv(1)
	params := rdma.DefaultParams()
	params.JitterPct = 0
	fabric := rdma.NewFabric(env, params)
	pool := memnode.NewPool(fabric, mns, 1<<22, 0)
	return &fixture{env: env, fabric: fabric, pool: pool, ix: New(pool, 1, capacity)}
}

func (f *fixture) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	f.env.Spawn("test", fn)
	if err := f.env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadThenLookup(t *testing.T) {
	f := newFixture(2, 1000)
	entries := map[layout.Key]uint64{}
	for k := layout.Key(0); k < 1000; k++ {
		entries[k] = uint64(k) * 64
	}
	if err := f.ix.BulkLoad(f.pool, entries); err != nil {
		t.Fatal(err)
	}
	f.run(t, func(p *sim.Proc) {
		for _, node := range f.pool.Nodes() {
			qp := f.fabric.Connect(node.Region)
			for k, want := range entries {
				off, found, err := f.ix.Lookup(p, qp, k)
				if err != nil {
					t.Fatal(err)
				}
				if !found || off != want {
					t.Fatalf("lookup %d on node %d = (%d,%v), want (%d,true)",
						k, node.ID, off, found, want)
				}
			}
		}
	})
}

func TestLookupMissingKey(t *testing.T) {
	f := newFixture(1, 100)
	if err := f.ix.BulkLoad(f.pool, map[layout.Key]uint64{1: 64, 2: 128}); err != nil {
		t.Fatal(err)
	}
	f.run(t, func(p *sim.Proc) {
		qp := f.fabric.Connect(f.pool.Nodes()[0].Region)
		_, found, err := f.ix.Lookup(p, qp, 999)
		if err != nil {
			t.Fatal(err)
		}
		if found {
			t.Fatal("found a key never inserted")
		}
	})
}

func TestKeyZeroIsUsable(t *testing.T) {
	f := newFixture(1, 10)
	if err := f.ix.BulkLoad(f.pool, map[layout.Key]uint64{0: 4096}); err != nil {
		t.Fatal(err)
	}
	f.run(t, func(p *sim.Proc) {
		qp := f.fabric.Connect(f.pool.Nodes()[0].Region)
		off, found, err := f.ix.Lookup(p, qp, 0)
		if err != nil || !found || off != 4096 {
			t.Fatalf("lookup(0) = (%d,%v,%v)", off, found, err)
		}
	})
}

func TestDuplicateLoadRejected(t *testing.T) {
	f := newFixture(1, 10)
	if err := f.ix.BulkLoad(f.pool, map[layout.Key]uint64{5: 64}); err != nil {
		t.Fatal(err)
	}
	if err := f.ix.BulkLoad(f.pool, map[layout.Key]uint64{5: 128}); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestRemoteInsertVisibleEverywhere(t *testing.T) {
	f := newFixture(3, 100)
	f.run(t, func(p *sim.Proc) {
		if err := f.ix.InsertAll(p, f.fabric, f.pool, 77, 8192); err != nil {
			t.Fatal(err)
		}
		for _, node := range f.pool.Nodes() {
			qp := f.fabric.Connect(node.Region)
			off, found, err := f.ix.Lookup(p, qp, 77)
			if err != nil || !found || off != 8192 {
				t.Fatalf("node %d lookup = (%d,%v,%v)", node.ID, off, found, err)
			}
		}
	})
}

func TestInsertDuplicateFails(t *testing.T) {
	f := newFixture(1, 100)
	f.run(t, func(p *sim.Proc) {
		qp := f.fabric.Connect(f.pool.Nodes()[0].Region)
		if err := f.ix.Insert(p, qp, 9, 64); err != nil {
			t.Fatal(err)
		}
		if err := f.ix.Insert(p, qp, 9, 128); err == nil {
			t.Fatal("duplicate insert accepted")
		}
	})
}

func TestConcurrentInsertersDoNotCollide(t *testing.T) {
	f := newFixture(1, 256)
	node := f.pool.Nodes()[0]
	for i := 0; i < 16; i++ {
		key := layout.Key(i)
		f.env.Spawn("inserter", func(p *sim.Proc) {
			qp := f.fabric.Connect(node.Region)
			if err := f.ix.Insert(p, qp, key, uint64(key)*64+64); err != nil {
				t.Errorf("insert %d: %v", key, err)
			}
		})
	}
	if err := f.env.Run(); err != nil {
		t.Fatal(err)
	}
	f.env.Spawn("verify", func(p *sim.Proc) {
		qp := f.fabric.Connect(node.Region)
		for i := 0; i < 16; i++ {
			off, found, err := f.ix.Lookup(p, qp, layout.Key(i))
			if err != nil || !found || off != uint64(i)*64+64 {
				t.Errorf("lookup %d = (%d,%v,%v)", i, off, found, err)
			}
		}
	})
	if err := f.env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteHidesKeyButKeepsProbeChain(t *testing.T) {
	f := newFixture(1, 64)
	entries := map[layout.Key]uint64{}
	for k := layout.Key(0); k < 64; k++ {
		entries[k] = uint64(k+1) * 64
	}
	if err := f.ix.BulkLoad(f.pool, entries); err != nil {
		t.Fatal(err)
	}
	f.run(t, func(p *sim.Proc) {
		qp := f.fabric.Connect(f.pool.Nodes()[0].Region)
		if err := f.ix.Delete(p, qp, 10); err != nil {
			t.Fatal(err)
		}
		if _, found, _ := f.ix.Lookup(p, qp, 10); found {
			t.Fatal("deleted key still found")
		}
		// Every other key must remain reachable even if it probed past
		// key 10's entry.
		for k := layout.Key(0); k < 64; k++ {
			if k == 10 {
				continue
			}
			off, found, err := f.ix.Lookup(p, qp, k)
			if err != nil || !found || off != entries[k] {
				t.Fatalf("lookup %d after delete = (%d,%v,%v)", k, off, found, err)
			}
		}
	})
}

func TestOverCapacityRejected(t *testing.T) {
	f := newFixture(1, 4)
	entries := map[layout.Key]uint64{}
	for k := layout.Key(0); k < 5; k++ {
		entries[k] = 64
	}
	if err := f.ix.BulkLoad(f.pool, entries); err == nil {
		t.Fatal("over-capacity load accepted")
	}
}

func TestLookupCostIsOneReadWhenUncontended(t *testing.T) {
	f := newFixture(1, 1000)
	entries := map[layout.Key]uint64{}
	for k := layout.Key(0); k < 1000; k++ {
		entries[k] = uint64(k+1) * 64
	}
	if err := f.ix.BulkLoad(f.pool, entries); err != nil {
		t.Fatal(err)
	}
	f.run(t, func(p *sim.Proc) {
		qp := f.fabric.Connect(f.pool.Nodes()[0].Region)
		before := f.fabric.Stats()
		n := 200
		for k := layout.Key(0); k < layout.Key(n); k++ {
			if _, found, err := f.ix.Lookup(p, qp, k); err != nil || !found {
				t.Fatal("lookup failed")
			}
		}
		reads := f.fabric.Stats().Sub(before).Reads
		// Load factor ≤ 1/2 keeps probing rare: average well under two
		// READs per lookup.
		if reads > uint64(n)*3/2 {
			t.Fatalf("%d reads for %d lookups", reads, n)
		}
	})
}

func TestAddrCache(t *testing.T) {
	c := NewAddrCache()
	if _, ok := c.Get(1, 2); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(1, 2, 4096)
	if off, ok := c.Get(1, 2); !ok || off != 4096 {
		t.Fatalf("Get = (%d,%v)", off, ok)
	}
	if _, ok := c.Get(2, 2); ok {
		t.Fatal("cross-table hit")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

// TestAddrCacheLayers: a warm view is shared and never written, what a
// cache learns is its own, and an address in both layers counts once —
// over a directory held by arithmetic and over one held in a map.
func TestAddrCacheLayers(t *testing.T) {
	for name, first := range map[string]layout.Key{"dense": 0, "map": 1} {
		t.Run(name, func(t *testing.T) {
			off := func(k layout.Key) uint64 { return 64 + uint64(k)*64 }
			loaded := NewDir(64, 64, 8)
			for k := first; k < first+3; k++ {
				loaded.Add(k, off(k))
			}
			if dense := loaded.Prefix() == 3; dense != (first == 0) {
				t.Fatalf("prefix %d for keys from %d", loaded.Prefix(), first)
			}
			a, b := NewAddrCache(), NewAddrCache()
			a.Warm(7, loaded)
			b.Warm(7, loaded)
			if got, ok := a.Get(7, first+1); !ok || got != off(first+1) {
				t.Fatalf("warm Get = (%d,%v)", got, ok)
			}
			if _, ok := a.Get(8, first+1); ok {
				t.Fatal("a warm view answered for another table")
			}
			a.Put(7, 9, 640)                // learned from an index lookup
			a.Put(7, first+1, off(first+1)) // learned again what the view already holds
			if got, ok := a.Get(7, 9); !ok || got != 640 {
				t.Fatalf("learned Get = (%d,%v)", got, ok)
			}
			if _, ok := b.Get(7, 9); ok {
				t.Fatal("one cache sees what another learned")
			}
			if loaded.Len() != 3 {
				t.Fatalf("Put wrote to the shared view: Len %d", loaded.Len())
			}
			if a.Len() != 4 || b.Len() != 3 {
				t.Fatalf("Len = %d and %d, want 4 and 3", a.Len(), b.Len())
			}
			again := NewDir(64, 64, 8)
			again.Add(first, off(first))
			a.Warm(7, again)
			if _, ok := a.Get(7, first+2); ok || a.Len() != 3 {
				t.Fatalf("a second view of a table did not replace the first (Len %d)", a.Len())
			}
		})
	}
}

// dirKinds are TestDirMatchesMap's load sequences: the key of the
// i-th record a loader offers, and the prefix the sequence leaves (-1:
// not fixed, the keys being random).
var dirKinds = map[string]struct {
	key    func(rng *rand.Rand, i int) layout.Key
	prefix int
}{
	"dense":           {func(_ *rand.Rand, i int) layout.Key { return layout.Key(i) }, dirOffers},
	"prefix-then-gap": {func(_ *rand.Rand, i int) layout.Key { return layout.Key(i + i/40*3) }, 40},
	"gap-after-0":     {func(_ *rand.Rand, i int) layout.Key { return layout.Key(i + min(i, 1)) }, 1},
	"first-key-not-0": {func(_ *rand.Rand, i int) layout.Key { return layout.Key(i + 1) }, 0},
	"row-skipped":     {func(_ *rand.Rand, i int) layout.Key { return layout.Key(i) }, dirOffers / 2},
	"random":          {func(rng *rand.Rand, _ int) layout.Key { return layout.Key(rng.Intn(4 * dirOffers)) }, -1},
}

const dirOffers = 120

// TestDirMatchesMap loads random sequences into a Dir and a reference
// map side by side. Offsets come from rows, as in a table's heap: each
// accepted key takes the next row, and on "row-skipped" one row in the
// middle is taken by something else (a claimed slot). Before about one
// offer in eight, an earlier key, in the prefix or in the map, is
// offered again and must be refused.
func TestDirMatchesMap(t *testing.T) {
	const base, stride = 4096, 48
	for name, kind := range dirKinds {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			d, ref := NewDir(base, stride, 2*dirOffers), map[layout.Key]uint64{}
			var added []layout.Key
			row := uint64(0)
			offer := func(key layout.Key) {
				off := base + row*stride
				_, dup := ref[key]
				if ok := d.Add(key, off); ok == dup {
					t.Fatalf("%s/seed %d: Add(%d) = %v with the key present = %v", name, seed, key, ok, dup)
				}
				if !dup {
					ref[key] = off
					added = append(added, key)
					row++
				}
			}
			for i := 0; i < dirOffers; i++ {
				if len(added) > 0 && rng.Intn(8) == 0 {
					offer(added[rng.Intn(len(added))])
				}
				if name == "row-skipped" && i == dirOffers/2 {
					row++
				}
				offer(kind.key(rng, i))
			}
			if kind.prefix >= 0 && d.Prefix() != kind.prefix {
				t.Fatalf("%s/seed %d: prefix %d, want %d", name, seed, d.Prefix(), kind.prefix)
			}
			for k := layout.Key(0); k < 5*dirOffers; k++ {
				want, in := ref[k]
				if got, ok := d.Get(k); ok != in || got != want {
					t.Fatalf("%s/seed %d: Get(%d) = (%d,%v), want (%d,%v)", name, seed, k, got, ok, want, in)
				}
			}
			if d.Len() != len(ref) {
				t.Fatalf("%s/seed %d: Len %d, want %d", name, seed, d.Len(), len(ref))
			}
			seen := map[layout.Key]bool{}
			d.Range(func(k layout.Key, off uint64) {
				if seen[k] || ref[k] != off {
					t.Fatalf("%s/seed %d: Range gave %d at %d (seen before: %v), want %d", name, seed, k, off, seen[k], ref[k])
				}
				seen[k] = true
			})
			if len(seen) != len(ref) {
				t.Fatalf("%s/seed %d: Range visited %d keys of %d", name, seed, len(seen), len(ref))
			}
		}
	}
}

// BenchmarkAddrCacheGet times a hit in each layer: a warm view held by
// arithmetic (keys loaded 0, 1, 2, … in row order), a warm view held in
// a map, each behind a scan of nine tables, and the overlay (a map of
// table-key pairs, all there is to an unwarmed cache).
func BenchmarkAddrCacheGet(b *testing.B) {
	const keys = 1 << 16
	dense, sparse := NewDir(64, 64, keys), NewDir(0, 64, keys)
	overlay := NewAddrCache()
	for k := 0; k < keys; k++ {
		dense.Add(layout.Key(k), uint64(64*(k+1)))
		sparse.Add(layout.Key(k), uint64(64*(k+1)))
		overlay.Put(38, layout.Key(k), uint64(64*(k+1)))
	}
	if dense.Prefix() != keys || sparse.Prefix() != 0 {
		b.Fatalf("prefixes %d and %d", dense.Prefix(), sparse.Prefix())
	}
	warm := func(d *Dir) *AddrCache {
		c := NewAddrCache()
		for table := layout.TableID(30); table < 39; table++ { // TPC-C's nine
			c.Warm(table, d)
		}
		return c
	}
	for name, c := range map[string]*AddrCache{"dense": warm(dense), "warm": warm(sparse), "overlay": overlay} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var sum uint64
			for i := 0; i < b.N; i++ {
				off, _ := c.Get(38, layout.Key(i%keys))
				sum += off
			}
			if sum == 0 {
				b.Fatal("no hit")
			}
		})
	}
}

// Property: any set of distinct keys loads and resolves correctly.
func TestQuickLoadLookup(t *testing.T) {
	f := func(raw []uint16) bool {
		keys := map[layout.Key]uint64{}
		for i, r := range raw {
			keys[layout.Key(r)] = uint64(i+1) * 64
		}
		if len(keys) == 0 {
			return true
		}
		fx := newFixture(1, len(keys))
		if err := fx.ix.BulkLoad(fx.pool, keys); err != nil {
			return false
		}
		ok := true
		fx.env.Spawn("check", func(p *sim.Proc) {
			qp := fx.fabric.Connect(fx.pool.Nodes()[0].Region)
			for k, want := range keys {
				off, found, err := fx.ix.Lookup(p, qp, k)
				if err != nil || !found || off != want {
					ok = false
					return
				}
			}
		})
		if err := fx.env.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
