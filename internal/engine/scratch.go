package engine

import (
	"crest/internal/hashindex"
	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/rdma"
	"crest/internal/sim"
)

// logSegmentSize is each coordinator's log ring in the memory pool.
const logSegmentSize = 64 << 10

// RecKey names one record.
type RecKey struct {
	Table layout.TableID
	Key   layout.Key
}

// RecBase is the per-record attempt state every execution path keeps,
// whatever else it tracks: the strict driver's Work and CREST's
// localized access both embed it, which is what lets them share the
// helpers below.
type RecBase struct {
	Op *Op
	RecKey
	Primary *memnode.Node
	// ReadVals and WriteVals are what the op's hook observed and
	// produced, in ReadCells / WriteCells order.
	ReadVals  [][]byte
	WriteVals [][]byte
}

// Base returns b; embedding RecBase is how a type satisfies Rec.
func (b *RecBase) Base() *RecBase { return b }

// Rec is a per-record attempt entry.
type Rec interface{ Base() *RecBase }

// SortRecs orders entries by (TableID, Key) — the order locks are
// taken and batches are built in. Transactions touch a handful of
// records and no record twice, so the order is total and a plain
// insertion sort does (no closure, no interface boxing on a path taken
// once per block).
func SortRecs[T Rec](rs []T) {
	for i := 1; i < len(rs); i++ {
		r, k := rs[i], rs[i].Base().RecKey
		j := i - 1
		for j >= 0 && k.less(rs[j].Base().RecKey) {
			rs[j+1] = rs[j]
			j--
		}
		rs[j+1] = r
	}
}

func (k RecKey) less(o RecKey) bool {
	if k.Table != o.Table {
		return k.Table < o.Table
	}
	return k.Key < o.Key
}

// FindRec returns the entry covering k, or the zero T; the handful of
// records makes a linear scan cheaper than a map in time and
// allocation.
func FindRec[T Rec](rs []T, k RecKey) T {
	for _, r := range rs {
		// Field by field: RecKey has padding, so == is a function call.
		if b := r.Base(); b.Key == k.Key && b.Table == k.Table {
			return r
		}
	}
	var none T
	return none
}

// WriteShards returns the shard groups of every written record in rs.
func WriteShards[T Rec](pool *memnode.Pool, rs []T) ShardSet {
	var parts ShardSet
	for _, r := range rs {
		if b := r.Base(); b.Op.IsWrite() {
			parts.Add(pool.ShardOfNode(b.Primary.ID))
		}
	}
	return parts
}

// CommitRecs feeds the transaction on p, committing now, into o's
// history: ht carries the serial position, the observer context the
// identity and when the transaction began, rs the values the hooks
// actually observed and produced. Call it with no park before the
// attempt's Done, so p's clock reads the acknowledgement.
func CommitRecs[T Rec](o *Observers, p *sim.Proc, ht HTxn, rs []T) {
	h := o.History
	if h == nil {
		return
	}
	c := ctxOf(p)
	ht.ID, ht.Label, ht.Begin, ht.Ack = c.span.ID, c.span.Label, c.begin, p.Now()
	for _, r := range rs {
		b := r.Base()
		for i, cell := range b.Op.ReadCells {
			ht.Reads = append(ht.Reads, HRead{
				Cell: CellID{Table: b.Table, Key: b.Key, Cell: cell},
				Hash: HashValue(b.ReadVals[i]),
			})
		}
		for i, cell := range b.Op.WriteCells {
			ht.Writes = append(ht.Writes, HWrite{
				Cell: CellID{Table: b.Table, Key: b.Key, Cell: cell},
				Hash: HashValue(b.WriteVals[i]),
			})
		}
	}
	h.Commit(ht)
}

// Slab hands out recycled *T entries for one attempt. Next does not
// clear the entry: the caller overwrites it, keeping whichever backing
// arrays it wants to reuse.
type Slab[T any] struct {
	items []T
	n     int
}

// Reset recycles every entry.
func (s *Slab[T]) Reset() { s.n = 0 }

// Next returns the next entry, as its previous user left it.
func (s *Slab[T]) Next() *T {
	if s.n == len(s.items) {
		var zero T
		s.items = append(s.items, zero)
	}
	e := &s.items[s.n]
	s.n++
	return e
}

// ArenaChunk is the size of an Arena's chunks.
const ArenaChunk = 32 << 10

// Arena carves byte slices out of ArenaChunk-sized chunks: attempt-
// lived ones when its owner Resets it between attempts, ones that live
// as long as anything points into their chunk when nobody does (the
// CREST compute node's base blocks).
type Arena struct {
	buf []byte
	off int
}

// Reset recycles the current chunk.
func (a *Arena) Reset() { a.off = 0 }

// Bytes returns n fresh bytes, valid until the next Reset: a full
// chunk is abandoned to the garbage collector, not reallocated, so
// earlier slices stay intact.
func (a *Arena) Bytes(n int) []byte {
	if a.off+n > len(a.buf) {
		a.buf = make([]byte, max(n, ArenaChunk))
		a.off = 0
	}
	b := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return b
}

// Scratch is the attempt-scoped working memory every execution path
// needs: the per-node batch builder, the byte arena, a verb list, a
// replica-node list, and the log encoding buffer with its persistent
// per-node batches (the prepare round's, then the decision write's).
// Paths embed it in their own scratch beside their record slabs and
// lists.
//
// Coordinators are shared round-robin across transaction processes, so
// attempts on one coordinator can overlap in virtual time; each attempt
// checks a scratch out of the coordinator's FreeList for its whole
// duration, which keeps the steady-state hot path allocation-free
// without cross-attempt aliasing. Nothing allocated from a scratch may
// outlive the attempt.
type Scratch struct {
	Bat *Batcher
	Arena
	LogBuf     []byte
	Ops        []rdma.Op       // one record's install or write-back WRITEs, before they fan out to the replicas
	Nodes      []*memnode.Node // the replicas they fan out to (Pool.AppendReplicaNodes)
	logBatches []rdma.Batch
}

// FreeList recycles attempt scratch of type S.
type FreeList[S any] struct{ free []*S }

// Get pops a recycled scratch, or returns nil when none is free.
func (f *FreeList[S]) Get() *S {
	n := len(f.free)
	if n == 0 {
		return nil
	}
	s := f.free[n-1]
	f.free = f.free[:n-1]
	return s
}

// Put returns a scratch once its attempt is over.
func (f *FreeList[S]) Put(s *S) { f.free = append(f.free, s) }

// Coord is what every coordinator is bootstrapped with: its partition's
// view of the database, its compute node's address cache, a nonzero
// global id (the lock-word owner value), warm queue pairs, and a log
// segment replicated on LogN, the first of which decides its home
// shard group.
type Coord struct {
	DB    *DB
	Cache *hashindex.AddrCache
	GID   uint64
	QPs   *QPCache
	Log   *memnode.LogSegment
	LogN  []*memnode.Node
	Home  int
}

// NewCoord bootstraps coordinator id, which must be unique across
// compute nodes.
func NewCoord(db *DB, cache *hashindex.AddrCache, id int) Coord {
	pool := db.Pool
	c := Coord{
		DB:    db,
		Cache: cache,
		GID:   uint64(id) + 1,
		QPs:   NewQPCache(db.Fabric),
		Log:   pool.AllocLog(logSegmentSize),
		LogN:  pool.LogNodes(id, pool.Replicas()+1),
	}
	c.QPs.Warm(pool)
	c.Home = pool.ShardOfNode(c.LogN[0].ID)
	return c
}

// NewScratch returns empty scratch batching through c's queue pairs.
func (c *Coord) NewScratch() Scratch { return Scratch{Bat: NewBatcher(c.QPs)} }

// Resolve locates record k: its primary node and its offset there (the
// same on every replica), through the address cache or, on a miss,
// one-sided index lookups. A key that is not in the table is a
// programming error.
func (c *Coord) Resolve(p *sim.Proc, k RecKey) (*memnode.Node, uint64) {
	primary := c.DB.Pool.PrimaryOf(k.Table, k.Key)
	off, err := c.DB.ResolveAddr(p, c.Cache, c.QPs.Get(primary.Region), k.Table, k.Key)
	if err != nil {
		panic(err)
	}
	return primary, off
}

// WriteLog persists an encoded log entry for a commit whose written
// records live on shard groups parts. Cross-shard commits pay a prepare
// round first: the entry lands on every other participating group's log
// mirrors before the home group's decision write, which goes to every
// log replica in one round-trip. The replicas get distinct batches even
// when they share a region: merging them would change the fabric's
// batch count.
func (c *Coord) WriteLog(p *sim.Proc, sc *Scratch, parts ShardSet, entry []byte) {
	off := c.Log.Reserve(len(entry))
	if parts.Beyond(c.Home) {
		c.prepareCrossShard(p, sc, parts, off, entry)
	}
	bs := sc.batches(len(c.LogN))
	for i, n := range c.LogN {
		setWrite(&bs[i], c.QPs.Get(n.Region), off, entry)
	}
	post(p, bs)
}

// batches returns n of the scratch's log batches, each with the Ops
// array it had: the list grows once, to the most batches a round has
// needed, and never shrinks.
func (sc *Scratch) batches(n int) []rdma.Batch {
	if k := cap(sc.logBatches); k < n {
		sc.logBatches = append(sc.logBatches[:k], make([]rdma.Batch, n-k)...)
	}
	return sc.logBatches[:n]
}

// setWrite makes b one WRITE of data at off through qp.
func setWrite(b *rdma.Batch, qp *rdma.QP, off uint64, data []byte) {
	b.QP = qp
	b.Ops = append(b.Ops[:0], rdma.Op{Kind: rdma.OpWrite, Off: off, Data: data})
}

// post issues one round-trip; a fabric error on it is a programming
// error (engines never post to failed nodes).
func post(p *sim.Proc, batches []rdma.Batch) [][]rdma.Result {
	results, err := rdma.PostMulti(p, batches)
	if err != nil {
		panic(err)
	}
	return results
}
