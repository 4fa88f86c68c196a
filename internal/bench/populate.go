package bench

import (
	"cmp"
	"math"
	"os"
	"runtime"
	"slices"
	"sync/atomic"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/memnode"
	"crest/internal/rdma"
	"crest/internal/workload"
)

// populate faults in a run of a region's pages for the load helper.
// Tests replace it to record the runs.
var populate = (*rdma.Region).Populate

// aheadBytes is how far, in each table's heap, the load helper keeps
// ahead of the loader. It bounds what the helper makes resident that
// no load writes: at most this much per table and node, past the last
// row of a table the generator does not fill.
const aheadBytes = 256 << 10

var pageSize = uint64(os.Getpagesize())

// load runs gen's load into the deployment's tables while one helper
// goroutine populates the pages the load is about to write (see
// loadHelper). The helper has stopped by the time load returns, panics
// included. With one core to run on, the helper could only take turns
// with the loader, so there is none.
func (d *Deployment) load(gen workload.Generator) {
	if runtime.GOMAXPROCS(0) < 2 {
		gen.Load(d.Sys.Load)
		return
	}
	h := newLoadHelper(d.Pool, d.db.Tables)
	go h.run()
	defer h.stop()
	gen.Load(func(table layout.TableID, key layout.Key, cells [][]byte) {
		h.note(table, key)
		d.Sys.Load(table, key, cells)
	})
}

// loadHelper populates, on a second core, the pool pages a load is
// about to write, so the loader's first store into each page does not
// trap to have it zero-filled. The loader reports each row it loads
// (note); the helper walks each table's rows up to aheadBytes past the
// loader's, on each row's replica nodes as the placement policy puts
// them, and populates their pages in coalesced runs. A table's hash
// index is populated when the loader has filled the table, or at the
// end of the load, on the nodes of the groups that own its keys.
//
// The helper predicts that a table's keys load as 0, 1, 2, … in row
// order, as every generator's do (engine.Table's directory relies on
// the same). A table whose keys stray from that is left to the loader
// from the first stray key on. Populating never changes a byte, so a
// wrong or late prediction costs time, never a result.
type loadHelper struct {
	pool   *memnode.Pool
	tables []*loadTable
	last   *loadTable // the loader's most recent table
	wake   chan struct{}
	done   chan struct{} // closed by stop: the load is over
	exited chan struct{} // closed by the helper on its way out

	// The helper's own scratch.
	nodes []*memnode.Node
	runs  []span // per node: the run being coalesced
}

// loadTable is one table's load progress, shared by loader and helper.
type loadTable struct {
	t     *engine.Table
	ahead int // rows in aheadBytes

	// Written by the loader.
	rows   int          // rows loaded
	loaded atomic.Int64 // rows, as last published to the helper
	stray  atomic.Bool  // a key has not been its row
	// Written by the helper.
	wakeAt   atomic.Int64 // the row count at which the loader wakes the helper
	walked   int          // rows whose pages are populated
	finished bool         // index populated, or left to the loader
}

// span is a run of bytes [off, end) of one node's region.
type span struct{ off, end uint64 }

func newLoadHelper(pool *memnode.Pool, tables map[layout.TableID]*engine.Table) *loadHelper {
	h := &loadHelper{
		pool:   pool,
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
		exited: make(chan struct{}),
		runs:   make([]span, pool.NumNodes()),
	}
	for _, t := range tables {
		lt := &loadTable{t: t, ahead: max(1, aheadBytes/t.Heap.RecSize)}
		lt.wakeAt.Store(1)
		h.tables = append(h.tables, lt)
	}
	slices.SortFunc(h.tables, func(a, b *loadTable) int { return cmp.Compare(a.t.Schema.ID, b.t.Schema.ID) })
	return h
}

// note tells the helper the loader is about to load key into table's
// next row. It wakes the helper only once the loader has used up half
// of the helper's lead on that table.
func (h *loadHelper) note(table layout.TableID, key layout.Key) {
	lt := h.last
	if lt == nil || lt.t.Schema.ID != table {
		if lt = h.find(table); lt == nil {
			return // not a table of this deployment: Sys.Load says so
		}
		h.last = lt
	}
	if key != layout.Key(lt.rows) && !lt.stray.Load() {
		lt.stray.Store(true)
	}
	lt.rows++
	if int64(lt.rows) >= lt.wakeAt.Load() {
		lt.loaded.Store(int64(lt.rows))
		select {
		case h.wake <- struct{}{}:
		default: // the helper has a wake pending and reads loaded then
		}
	}
}

func (h *loadHelper) find(table layout.TableID) *loadTable {
	for _, lt := range h.tables {
		if lt.t.Schema.ID == table {
			return lt
		}
	}
	return nil
}

// stop ends the load: the helper populates the index of every table it
// has not yet, and stop returns once it has exited.
func (h *loadHelper) stop() {
	for _, lt := range h.tables {
		lt.loaded.Store(int64(lt.rows))
	}
	close(h.done)
	<-h.exited
}

func (h *loadHelper) run() {
	defer close(h.exited)
	for {
		select {
		case <-h.wake:
			for _, lt := range h.tables {
				h.advance(lt)
			}
		case <-h.done:
			for _, lt := range h.tables {
				h.finish(lt)
			}
			return
		}
	}
}

// advance keeps the helper's lead on lt: rows up to aheadBytes past the
// loader's are populated, and the loader wakes the helper again when it
// has used half of that, or when it fills the table.
func (h *loadHelper) advance(lt *loadTable) {
	loaded, count := int(lt.loaded.Load()), lt.t.Heap.Count
	switch {
	case lt.finished || loaded == 0: // loaded == 0: the first row wakes the helper
		return
	case loaded >= count || lt.stray.Load():
		h.finish(lt)
		return
	}
	to := min(count, loaded+lt.ahead)
	h.walk(lt, to)
	next := to - lt.ahead/2
	if to == count {
		next = count
	}
	lt.wakeAt.Store(int64(max(next, loaded+1)))
}

// finish completes lt at the end of its load: its rows up to the
// loader's are walked (pages already written cost little to populate)
// and its index is populated on the groups that own its keys. A table
// whose keys strayed gets neither.
func (h *loadHelper) finish(lt *loadTable) {
	if lt.finished {
		return
	}
	lt.finished = true
	lt.wakeAt.Store(math.MaxInt64)
	loaded := int(lt.loaded.Load())
	if lt.stray.Load() || loaded == 0 {
		return
	}
	h.walk(lt, loaded)
	ix := lt.t.Index
	for g, owns := range h.groupsOwning(lt.t.Schema.ID, loaded) {
		if owns {
			for _, n := range h.pool.GroupNodes(g) {
				populate(n.Region, ix.Base(), ix.SizeBytes())
			}
		}
	}
}

// walk populates the pages of lt's rows from the last walked up to
// row to, on each row's replica nodes. A node's rows coalesce into one
// run for as long as each starts on the page its predecessor ends on
// or on the next.
func (h *loadHelper) walk(lt *loadTable, to int) {
	heap, id := lt.t.Heap, lt.t.Schema.ID
	for row := lt.walked; row < to; row++ {
		off := heap.Base + uint64(row*heap.RecSize)
		end := off + uint64(heap.RecSize)
		h.nodes = h.pool.AppendReplicaNodes(h.nodes[:0], id, layout.Key(row))
		for _, n := range h.nodes {
			r := &h.runs[n.ID]
			if r.end > 0 && off/pageSize <= (r.end-1)/pageSize+1 {
				r.end = end
				continue
			}
			h.flush(n)
			*r = span{off, end}
		}
	}
	lt.walked = max(lt.walked, to)
	for _, n := range h.pool.Nodes() {
		h.flush(n)
	}
}

func (h *loadHelper) flush(n *memnode.Node) {
	if r := &h.runs[n.ID]; r.end > 0 {
		populate(n.Region, r.off, int(r.end-r.off))
		*r = span{}
	}
}

// groupsOwning reports, per shard group, whether it owns one of keys
// 0 … rows-1 of table.
func (h *loadHelper) groupsOwning(table layout.TableID, rows int) []bool {
	owns := make([]bool, h.pool.Shards())
	if len(owns) == 1 {
		owns[0] = true
		return owns
	}
	for k := 0; k < rows; k++ {
		owns[h.pool.ShardOf(table, layout.Key(k))] = true
	}
	return owns
}
