package engine

import (
	"fmt"

	"crest/internal/hashindex"
	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/placement"
	"crest/internal/rdma"
	"crest/internal/sim"
)

// Table is one table's placement in the memory pool: a heap of record
// slots (mirrored offsets, replicated contents) plus the hash index
// resolving keys to slot offsets.
type Table struct {
	Schema layout.Schema
	Index  *hashindex.Index
	Heap   *memnode.Heap

	// dir is the host-side key → offset of every loaded record,
	// mirroring the index: arithmetic while keys were loaded as 0, 1,
	// 2, … into rows 0, 1, 2, …, a map after. WarmCache hands the
	// directory itself to the compute nodes' address caches, after
	// which it is read-only (warmed): records claimed at run time go to
	// claimed.
	dir     *hashindex.Dir
	warmed  bool
	claimed map[layout.Key]uint64
	nextRow int
	// indexed is how many of dir's prefix keys are in the index; pending
	// holds the loaded keys past the prefix that are not, in load order.
	// Every prefix key was loaded before any of them.
	indexed int
	pending []pendingRec
}

// pendingRec is a loaded record past the directory's prefix, waiting
// for FinishLoad.
type pendingRec struct {
	key layout.Key
	off uint64
}

// AddrOf returns the record's offset, for warming compute-node address
// caches. It reflects host-side loads and claims only.
func (t *Table) AddrOf(key layout.Key) (uint64, bool) {
	off, ok := t.dir.Get(key)
	if !ok {
		off, ok = t.claimed[key]
	}
	return off, ok
}

// Dense reports whether the table's directory holds every loaded key by
// arithmetic, none in its map: the keys were loaded 0, 1, 2, … into
// rows 0, 1, 2, ….
func (t *Table) Dense() bool { return t.dir.Prefix() == t.dir.Len() }

// NumLoaded reports how many records have been loaded.
func (t *Table) NumLoaded() int { return t.nextRow }

// Keys iterates the loaded keys (host-side, for verification tools).
func (t *Table) Keys(fn func(layout.Key, uint64)) {
	t.dir.Range(fn)
	for k, off := range t.claimed {
		fn(k, off)
	}
}

// IndexRegion exposes the table's hash-index placement (base offset
// and byte size) for node resynchronization.
func (t *Table) IndexRegion() (base uint64, size int) {
	return t.Index.Base(), t.Index.SizeBytes()
}

// ClaimSlot assigns the next free heap slot to key and returns its
// offset, for runtime row inserts. Slot allocation is host-side — a
// stand-in for the per-compute-node free lists a real deployment would
// partition (see DESIGN.md); index publication stays the caller's job.
func (t *Table) ClaimSlot(key layout.Key) (uint64, error) {
	if _, dup := t.AddrOf(key); dup {
		return 0, fmt.Errorf("engine: key %d already in table %q", key, t.Schema.Name)
	}
	if t.nextRow >= t.Heap.Count {
		return 0, fmt.Errorf("engine: table %q full at %d records", t.Schema.Name, t.Heap.Count)
	}
	off := t.Heap.SlotOff(t.nextRow)
	t.nextRow++
	if t.claimed == nil {
		t.claimed = map[layout.Key]uint64{}
	}
	t.claimed[key] = off
	return off, nil
}

// DB is the shared database substrate an engine builds on: the memory
// pool, the tables, and the cross-cutting instrumentation (timestamp
// oracle, contention table).
type DB struct {
	Pool    *memnode.Pool
	Fabric  *rdma.Fabric
	Tables  map[layout.TableID]*Table
	TSO     *TSO
	Tracker *ConflictTracker
	Cost    CostModel
	// Obs is the run's observers (trace, metrics, why, flight, history),
	// all disabled on the zero value. Install them with Attach.
	Obs Observers

	// loadNodes is LoadRecord's replica list, kept between records.
	loadNodes []*memnode.Node

	// txnNext/txnStride allocate transaction ids for the engines that
	// need them (CREST): 1, 2, 3, … on the root DB; part+1, part+1+parts,
	// … on a partition view, drawn by every compute node of the
	// partition, so ids are unique system-wide without shared state.
	// obsNext is the same sequence for the observers' one id per logical
	// transaction (beginObserved), which every view records it under.
	txnNext, txnStride, obsNext uint64
}

// NewDB wraps a pool.
func NewDB(pool *memnode.Pool) *DB {
	tables := map[layout.TableID]*Table{}
	return &DB{
		Pool:    pool,
		Fabric:  pool.Fabric(),
		Tables:  tables,
		TSO:     &TSO{},
		Tracker: NewConflictTracker(tables),
		Cost:    DefaultCostModel(),

		txnNext:   1,
		txnStride: 1,
		obsNext:   1,
	}
}

// NextTxnID draws a transaction id, unique across the root DB and all
// of its partition views.
func (db *DB) NextTxnID() uint64 {
	id := db.txnNext
	db.txnNext += db.txnStride
	return id
}

// PartitionView returns a shard-group-local view of the database for
// partition part, whose coordinators run on env: shared immutable
// placement (pool, fabric, tables, cost model) plus partition-private
// mutable state — a hybrid-logical-clock timestamp oracle floored
// above every load-time draw and a fresh contention table.
// Observability probes are sharded: the view records into the
// partition's own shard of each root recorder/registry (written
// lock-free by the partition's worker, merged deterministically at
// snapshot time), so observed runs execute at full worker count with
// byte-identical output.
func (db *DB) PartitionView(env *sim.Env, part int) *DB {
	parts := 1
	if w := env.World(); w != nil {
		parts = w.Parts()
	}
	tracker := NewConflictTracker(db.Tables)
	return &DB{
		Pool:    db.Pool,
		Fabric:  db.Fabric,
		Tables:  db.Tables,
		TSO:     NewPartitionTSO(env, part, db.TSO.Last()),
		Tracker: tracker,
		Cost:    db.Cost,
		Obs:     db.Obs.shard(part, parts, db.Pool.Shards(), tracker),

		txnNext:   uint64(part) + 1,
		txnStride: uint64(parts),
		obsNext:   uint64(part) + 1,
	}
}

// CreateTable allocates the heap and index for a schema. recSize is
// the engine-specific record footprint (each engine lays records out
// differently); capacity bounds the number of records.
func (db *DB) CreateTable(s layout.Schema, recSize, capacity int) *Table {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if _, dup := db.Tables[s.ID]; dup {
		panic(fmt.Sprintf("engine: duplicate table id %d", s.ID))
	}
	// Range-style placement policies size their shard boundaries from
	// table capacities; report them before any record is placed.
	if cs, ok := db.Pool.Policy().(placement.CapacitySetter); ok {
		cs.SetCapacity(s.ID, capacity)
	}
	// The index is allocated before the heap: the pool's layout, and so
	// every loaded byte, depends on this order.
	t := &Table{Schema: s, Index: hashindex.New(db.Pool, s.ID, capacity)}
	t.Heap = db.Pool.AllocHeap(recSize, capacity)
	t.dir = hashindex.NewDir(t.Heap.Base, t.Heap.RecSize, capacity)
	db.Tables[s.ID] = t
	return t
}

// RecordLayout is the load side of an engine's record format: how much
// room a table's records take and what a freshly loaded one holds.
type RecordLayout interface {
	// AddTable registers a (normalized) schema and returns its record
	// footprint in bytes.
	AddTable(sc layout.Schema) (recSize int)
	// Encode writes a record's load-time image into buf, which is zeroed
	// and of that footprint.
	Encode(buf []byte, table layout.TableID, key layout.Key, cells [][]byte)
}

// CreateTableAs registers a table laid out by l.
func (db *DB) CreateTableAs(l RecordLayout, sc layout.Schema, capacity int) {
	sc = sc.Normalize()
	db.CreateTable(sc, l.AddTable(sc), capacity)
}

// Load writes a record's initial cell values in l's layout host-side
// (the benchmark pre-load) and tells the history checker about them.
func (db *DB) Load(l RecordLayout, table layout.TableID, key layout.Key, cells [][]byte) {
	t := db.Table(table)
	for i, v := range cells {
		if len(v) != t.Schema.CellSizes[i] {
			panic(fmt.Sprintf("engine: table %q cell %d size %d, schema wants %d", t.Schema.Name, i, len(v), t.Schema.CellSizes[i]))
		}
	}
	db.LoadRecord(t, key, func(buf []byte) { l.Encode(buf, table, key, cells) })
	for i, v := range cells {
		db.Obs.History.SetInitial(CellID{Table: table, Key: key, Cell: i}, v)
	}
}

// Table returns the table with the given id.
func (db *DB) Table(id layout.TableID) *Table {
	t := db.Tables[id]
	if t == nil {
		panic(fmt.Sprintf("engine: unknown table %d", id))
	}
	return t
}

// LoadRecord assigns the next heap slot to key, lets encode fill the
// record bytes, and copies them host-side to every replica node — the
// benchmark pre-load step that precedes measurement. encode writes
// straight into the slot on the first replica, which is zero: loading
// comes before anything else writes to the regions. FinishLoad must be
// called before transactions run.
func (db *DB) LoadRecord(t *Table, key layout.Key, encode func(buf []byte)) {
	if t.nextRow >= t.Heap.Count {
		panic(fmt.Sprintf("engine: table %q full at %d records", t.Schema.Name, t.Heap.Count))
	}
	if t.warmed {
		panic(fmt.Sprintf("engine: load into table %q after an address cache was warmed from it", t.Schema.Name))
	}
	off := t.Heap.SlotOff(t.nextRow)
	prefix := t.dir.Prefix()
	if !t.dir.Add(key, off) {
		panic(fmt.Sprintf("engine: duplicate load of key %d in table %q", key, t.Schema.Name))
	}
	if t.dir.Prefix() == prefix {
		t.pending = append(t.pending, pendingRec{key, off})
	}
	t.nextRow++
	db.loadNodes = db.Pool.AppendReplicaNodes(db.loadNodes[:0], t.Schema.ID, key)
	first := db.loadNodes[0].Region.Bytes()[off : off+uint64(t.Heap.RecSize)]
	encode(first)
	for _, n := range db.loadNodes[1:] {
		copy(n.Region.Bytes()[off:], first)
	}
}

// FinishLoad publishes the records loaded since the last call in the
// hash index, in the order they were loaded: the directory's prefix
// keys, each at its own row, then the pending records.
func (db *DB) FinishLoad() error {
	for _, t := range db.Tables {
		for ; t.indexed < t.dir.Prefix(); t.indexed++ {
			if err := t.Index.Load(db.Pool, layout.Key(t.indexed), t.Heap.SlotOff(t.indexed)); err != nil {
				return err
			}
		}
		for _, r := range t.pending {
			if err := t.Index.Load(db.Pool, r.key, r.off); err != nil {
				return err
			}
		}
		t.pending = nil
	}
	return nil
}

// WarmCache fills a compute node's address cache with every loaded
// record, the steady-state assumption all three systems are measured
// under (Table 2 counts no index round-trips). The cache takes a view
// of each table's own directory, not a copy, so no table may be loaded
// into afterwards.
func (db *DB) WarmCache(c *hashindex.AddrCache) {
	for id, t := range db.Tables {
		t.warmed = true
		c.Warm(id, t.dir)
	}
}

// ResolveAddr returns the record's offset, consulting the compute
// node's cache first and falling back to one-sided index lookups on
// the record's primary node.
func (db *DB) ResolveAddr(p *sim.Proc, cache *hashindex.AddrCache, qp *rdma.QP,
	table layout.TableID, key layout.Key) (uint64, error) {
	if off, ok := cache.Get(table, key); ok {
		return off, nil
	}
	off, found, err := db.Table(table).Index.Lookup(p, qp, key)
	if err != nil {
		return 0, err
	}
	if !found {
		return 0, fmt.Errorf("engine: key %d not in table %d", key, table)
	}
	cache.Put(table, key, off)
	return off, nil
}
