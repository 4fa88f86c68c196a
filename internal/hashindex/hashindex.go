// Package hashindex implements the one-sided-RDMA-friendly hash index
// that maps a record's primary key to its offset in the memory pool
// (§2.2 of the paper: "records ... accessed via a hash index").
//
// The index is laid out so a lookup costs one READ in the common case:
// buckets are one cacheline (four 16-byte entries) and collisions
// spill to the next bucket by linear probing. Index contents are
// mirrored on every memory node of the shard group owning the key
// (allocation in the pool is symmetric across groups), so a
// coordinator probes the node it is about to read the record from.
// With one shard group that is every node — the historical layout.
//
// Compute nodes keep an address cache in front of the index — the
// usual deployment for all three systems — so steady-state
// transactions resolve addresses locally and the per-transaction verb
// counts match Table 2.
package hashindex

import (
	"encoding/binary"
	"fmt"

	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/rdma"
	"crest/internal/sim"
)

const (
	entrySize       = 16
	entriesPerBkt   = 4
	bucketSize      = entrySize * entriesPerBkt // one cacheline
	validBit        = uint64(1) << 63
	maxProbeBuckets = 64
)

// Index is one table's hash index, mirrored across the pool.
type Index struct {
	table   layout.TableID
	base    uint64
	buckets uint64
	used    int
	cap     int
}

// New allocates an index able to hold capacity keys. Bucket count is
// sized for a load factor of at most one half to keep probe chains
// short.
func New(pool *memnode.Pool, table layout.TableID, capacity int) *Index {
	if capacity <= 0 {
		panic("hashindex: capacity must be positive")
	}
	buckets := nextPow2(uint64(2*capacity+entriesPerBkt-1) / entriesPerBkt)
	ix := &Index{
		table:   table,
		base:    pool.Alloc(int(buckets) * bucketSize),
		buckets: buckets,
		cap:     capacity,
	}
	return ix
}

func nextPow2(v uint64) uint64 {
	n := uint64(1)
	for n < v {
		n <<= 1
	}
	return n
}

// Base returns the index's pool-mirrored base offset.
func (ix *Index) Base() uint64 { return ix.base }

// SizeBytes returns the index footprint per node.
func (ix *Index) SizeBytes() int { return int(ix.buckets) * bucketSize }

func (ix *Index) bucketOff(b uint64) uint64 { return ix.base + b*bucketSize }

func (ix *Index) home(key layout.Key) uint64 {
	return hash64(uint64(ix.table), uint64(key)) & (ix.buckets - 1)
}

// storedKey biases keys by one so the zero word means "empty entry".
func storedKey(key layout.Key) uint64 { return uint64(key) + 1 }

func hash64(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// BulkLoad inserts entries host-side into every node's region, the way
// the benchmark pre-loads the database before measurement. It bypasses
// the fabric entirely. A map has no order, so which entry of a crowded
// bucket a key takes differs from run to run; Load in a fixed order
// does not.
func (ix *Index) BulkLoad(pool *memnode.Pool, entries map[layout.Key]uint64) error {
	for key, off := range entries {
		if err := ix.Load(pool, key, off); err != nil {
			return err
		}
	}
	return nil
}

// Load inserts one entry host-side, as BulkLoad does.
func (ix *Index) Load(pool *memnode.Pool, key layout.Key, off uint64) error {
	if ix.used >= ix.cap {
		return fmt.Errorf("hashindex: table %d over capacity %d", ix.table, ix.cap)
	}
	// Each group's index copy holds only the keys that group owns, so
	// probe chains resolve against the owning group's first node.
	group := pool.GroupNodes(pool.ShardOf(ix.table, key))
	first := group[0].Region.Bytes()
	for probe := uint64(0); probe < maxProbeBuckets; probe++ {
		b := (ix.home(key) + probe) & (ix.buckets - 1)
		bOff := ix.bucketOff(b)
		for e := 0; e < entriesPerBkt; e++ {
			eOff := bOff + uint64(e*entrySize)
			if binary.LittleEndian.Uint64(first[eOff:]) == storedKey(key) {
				return fmt.Errorf("hashindex: duplicate key %d in table %d", key, ix.table)
			}
			if binary.LittleEndian.Uint64(first[eOff+8:]) != 0 {
				continue
			}
			for _, n := range group {
				buf := n.Region.Bytes()
				binary.LittleEndian.PutUint64(buf[eOff:], storedKey(key))
				binary.LittleEndian.PutUint64(buf[eOff+8:], off|validBit)
			}
			ix.used++
			return nil
		}
	}
	return fmt.Errorf("hashindex: probe chain exceeded for key %d", key)
}

// Lookup resolves key to a record offset with one-sided READs on qp
// (one per probed bucket; the first probe almost always suffices).
func (ix *Index) Lookup(p *sim.Proc, qp *rdma.QP, key layout.Key) (off uint64, found bool, err error) {
	for probe := uint64(0); probe < maxProbeBuckets; probe++ {
		b := (ix.home(key) + probe) & (ix.buckets - 1)
		data, err := qp.Read(p, ix.bucketOff(b), bucketSize)
		if err != nil {
			return 0, false, err
		}
		sawEmpty := false
		for e := 0; e < entriesPerBkt; e++ {
			k := binary.LittleEndian.Uint64(data[e*entrySize:])
			meta := binary.LittleEndian.Uint64(data[e*entrySize+8:])
			if k == storedKey(key) && meta&validBit != 0 {
				return meta &^ validBit, true, nil
			}
			if k == 0 && meta == 0 {
				sawEmpty = true
			}
		}
		if sawEmpty {
			return 0, false, nil
		}
	}
	return 0, false, nil
}

// Insert claims an entry for key via one-sided verbs: a CAS on the key
// word claims the slot, then a WRITE publishes the valid offset. The
// two steps take separate round-trips because a NIC does not suppress
// later WQEs when an earlier CAS fails. The caller is responsible for
// issuing the insert on every replica node (contents are mirrored);
// InsertAll does that.
func (ix *Index) Insert(p *sim.Proc, qp *rdma.QP, key layout.Key, off uint64) error {
	for probe := uint64(0); probe < maxProbeBuckets; probe++ {
		b := (ix.home(key) + probe) & (ix.buckets - 1)
		bOff := ix.bucketOff(b)
		data, err := qp.Read(p, bOff, bucketSize)
		if err != nil {
			return err
		}
		for e := 0; e < entriesPerBkt; e++ {
			k := binary.LittleEndian.Uint64(data[e*entrySize:])
			if k == storedKey(key) {
				return fmt.Errorf("hashindex: key %d already present", key)
			}
			if k != 0 {
				continue
			}
			eOff := bOff + uint64(e*entrySize)
			_, ok, err := qp.CAS(p, eOff, 0, storedKey(key))
			if err != nil {
				return err
			}
			if !ok {
				// Lost the race for this entry; rescan the bucket.
				return ix.Insert(p, qp, key, off)
			}
			if err := qp.Write(p, eOff+8, packMeta(off)); err != nil {
				return err
			}
			return nil
		}
	}
	return fmt.Errorf("hashindex: no space for key %d", key)
}

func packMeta(off uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, off|validBit)
	return b
}

// InsertAll performs Insert against every node of the shard group
// owning key, keeping that group's mirrored copies identical.
func (ix *Index) InsertAll(p *sim.Proc, fabric *rdma.Fabric, pool *memnode.Pool, key layout.Key, off uint64) error {
	for _, n := range pool.GroupNodes(pool.ShardOf(ix.table, key)) {
		if err := ix.Insert(p, fabric.Connect(n.Region), key, off); err != nil {
			return err
		}
	}
	return nil
}

// Delete tombstones key's entry on qp's node by clearing its valid
// bit. The entry's key word stays claimed, preserving probe chains.
func (ix *Index) Delete(p *sim.Proc, qp *rdma.QP, key layout.Key) error {
	for probe := uint64(0); probe < maxProbeBuckets; probe++ {
		b := (ix.home(key) + probe) & (ix.buckets - 1)
		bOff := ix.bucketOff(b)
		data, err := qp.Read(p, bOff, bucketSize)
		if err != nil {
			return err
		}
		sawEmpty := false
		for e := 0; e < entriesPerBkt; e++ {
			k := binary.LittleEndian.Uint64(data[e*entrySize:])
			if k == storedKey(key) {
				return qp.Write(p, bOff+uint64(e*entrySize)+8, make([]byte, 8))
			}
			if k == 0 {
				sawEmpty = true
			}
		}
		if sawEmpty {
			return fmt.Errorf("hashindex: delete of absent key %d", key)
		}
	}
	return fmt.Errorf("hashindex: delete of absent key %d", key)
}

// AddrCache is the compute-node address cache in front of the index. It
// has two layers. Warm views are the loaded tables' own directories,
// shared with every other cache warmed from them and never written once
// the load is over, so warming costs nothing per record and the caches
// of concurrently running partitions may read them. Addresses learned
// from an index lookup go to the cache's private overlay.
type AddrCache struct {
	warm    []warmTable
	learned map[addrKey]uint64
}

type warmTable struct {
	table layout.TableID
	dir   *Dir
}

type addrKey struct {
	table layout.TableID
	key   layout.Key
}

// NewAddrCache returns an empty cache.
func NewAddrCache() *AddrCache {
	return &AddrCache{learned: map[addrKey]uint64{}}
}

// Warm makes dir — table's loaded directory, which nobody writes from
// now on — part of the cache. A later view of the same table replaces
// an earlier one.
func (c *AddrCache) Warm(table layout.TableID, dir *Dir) {
	for i := range c.warm {
		if c.warm[i].table == table {
			c.warm[i].dir = dir
			return
		}
	}
	c.warm = append(c.warm, warmTable{table, dir})
}

// warmGet returns key's offset from table's warm view: a scan for the
// view, tables being few.
func (c *AddrCache) warmGet(table layout.TableID, key layout.Key) (uint64, bool) {
	for i := range c.warm {
		if c.warm[i].table == table {
			return c.warm[i].dir.Get(key)
		}
	}
	return 0, false
}

// Get returns the cached offset for (table, key).
func (c *AddrCache) Get(table layout.TableID, key layout.Key) (uint64, bool) {
	if len(c.learned) > 0 {
		if off, ok := c.learned[addrKey{table, key}]; ok {
			return off, true
		}
	}
	return c.warmGet(table, key)
}

// Put caches the offset for (table, key), privately.
func (c *AddrCache) Put(table layout.TableID, key layout.Key, off uint64) {
	c.learned[addrKey{table, key}] = off
}

// Len reports the number of cached addresses, an address in both
// layers counting once.
func (c *AddrCache) Len() int {
	n := 0
	for _, w := range c.warm {
		n += w.dir.Len()
	}
	for k := range c.learned {
		if _, dup := c.warmGet(k.table, k.key); !dup {
			n++
		}
	}
	return n
}
