package causality

import (
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"unsafe"

	"crest/internal/layout"
	"crest/internal/sim"
	"crest/internal/trace"
)

// TestRecordTableAllocs: the recorder's state grows by slabs, not by
// transactions or records. 10 000 transactions that each lock, update
// and unlock one of 1 000 records allocate the transaction-node slabs,
// the record table's chunks (states, and updater rings for records
// updated three times or more), the per-table key map's growth and the
// node ring's storage: within tableAllocs, against more than 12 000
// while every node and record state was an object of its own. A record
// updated 20 times still resolves updaterSince to the newest of its 16
// latest updaters, and no further back.
func TestRecordTableAllocs(t *testing.T) {
	const txns, records = 10000, 1000
	// The slabs: 40 of nodes, 4 of record states and 4 of updater
	// rings. The rest, 32, bounds what grows with them: the chunk
	// lists, the key map and the node ring's storage.
	const slabs = (txns+txnSlabLen-1)/txnSlabLen + 2*((records+1<<slabShift-1)>>slabShift)
	const tableAllocs = slabs + 32
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := NewRecorder(Options{Capacity: 64, TxnCapacity: 1024})
	inProc(t, func(p *sim.Proc) {
		span := trace.Span{Label: "t", Attempt: 1}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < txns; i++ {
			span.ID = uint64(i + 1)
			tx := r.Begin(p.Now(), &span)
			key := layout.Key(i % records)
			r.OnLock(tx, 2, key, 0b1)
			r.OnUpdate(tx.ID, 2, key, uint64(i+1), 0b1)
			r.OnUnlock(2, key, 0b1)
			r.Commit(p.Now(), tx)
		}
		runtime.ReadMemStats(&after)
		got := after.Mallocs - before.Mallocs
		t.Logf("%d transactions over %d records: %d allocations", txns, records, got)
		if got > tableAllocs {
			t.Errorf("%d allocations, want at most %d", got, tableAllocs)
		}
		if r.states.n != records || r.rings.n != records {
			t.Errorf("%d record states and %d updater rings, want %d of each", r.states.n, r.rings.n, records)
		}
	})

	r = NewRecorder(Options{})
	for v := uint64(1); v <= 20; v++ {
		r.OnUpdate(100+v, 2, 8, v, 0b1)
		// On another record the 16 newest writers are unknown (id 0):
		// its four known ones have aged out.
		id := uint64(0)
		if v <= 4 {
			id = 100 + v
		}
		r.OnUpdate(id, 2, 9, v, 0b1)
	}
	for _, since := range []uint64{0, 4, 10, 19} {
		if got := r.updaterSince(r.lookup(2, 8), since); got != 120 {
			t.Errorf("updater past v%d = %d, want the newest, 120", since, got)
		}
		if got := r.updaterSince(r.lookup(2, 9), since); got != 0 {
			t.Errorf("updater past v%d = %d, want 0: every known updater aged out", since, got)
		}
	}
	if got := r.updaterSince(r.lookup(2, 8), 20); got != 0 {
		t.Errorf("updater past v20 = %d, want 0", got)
	}
}

// TestRecStateSizeClasses holds a record's inline state to the size it
// was fitted to: 424 bytes while it carried a 16-entry updater ring
// and a holder slice, 96 now (unsafe.Sizeof; the table's chunks carry
// no size-class rounding).
func TestRecStateSizeClasses(t *testing.T) {
	const limit = 136
	size := unsafe.Sizeof(recState{})
	t.Logf("recState: %d bytes; updRing: %d bytes", size, unsafe.Sizeof(updRing{}))
	if size > limit {
		t.Errorf("recState is %d bytes, over its %d-byte budget", size, limit)
	}
}

// refRec is the record state as it was first written, a holder slice
// and a 16-entry updater array: the reference the record table must
// answer like.
type refRec struct {
	holders []holderEntry
	ring    [updaterHistoryLen]updEntry
	n, pos  int
}

func (rs *refRec) lock(id, mask uint64) {
	for i := range rs.holders {
		if rs.holders[i].id == id {
			rs.holders[i].mask |= mask
			return
		}
	}
	rs.holders = append(rs.holders, holderEntry{id: id, mask: mask})
}

func (rs *refRec) unlock(mask uint64) {
	if mask == 0 {
		rs.holders = rs.holders[:0]
		return
	}
	kept := rs.holders[:0]
	for _, h := range rs.holders {
		if h.mask &= ^mask; h.mask != 0 {
			kept = append(kept, h)
		}
	}
	rs.holders = kept
}

func (rs *refRec) holderOf(mask uint64) uint64 {
	for _, h := range rs.holders {
		if mask == 0 || h.mask == 0 || h.mask&mask != 0 {
			return h.id
		}
	}
	return 0
}

func (rs *refRec) update(e updEntry) {
	if rs.n < updaterHistoryLen {
		rs.ring[rs.n] = e
		rs.n++
		return
	}
	rs.ring[rs.pos] = e
	rs.pos = (rs.pos + 1) % updaterHistoryLen
}

func (rs *refRec) updaterSince(since uint64) uint64 {
	var best, bestVer uint64
	for _, e := range rs.ring[:rs.n] {
		if e.version > since && e.version >= bestVer && e.id != 0 {
			best, bestVer = e.id, e.version
		}
	}
	return best
}

// TestRecordTableMatchesReference drives the record table and the
// reference through the same random locks, unlocks and updates on a
// few records of two tables — up to six holders at once, so the
// holder list spills, and versions that repeat, so ties in the updater
// ring are broken by slot as before — and checks every answer agrees.
func TestRecordTableMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRecorder(Options{})
		ref := map[[2]uint64]*refRec{}
		for op := 0; op < 4000; op++ {
			table, key := layout.TableID(1+rng.Intn(2)), layout.Key(rng.Intn(3))
			k := [2]uint64{uint64(table), uint64(key)}
			if ref[k] == nil {
				ref[k] = &refRec{}
			}
			mask := uint64(rng.Intn(16))
			switch rng.Intn(4) {
			case 0:
				id := uint64(1 + rng.Intn(6))
				r.OnLock(&Txn{ID: id}, table, key, mask)
				ref[k].lock(id, mask)
			case 1:
				if rng.Intn(4) == 0 {
					mask = 0
				}
				r.OnUnlock(table, key, mask)
				ref[k].unlock(mask)
			case 2:
				e := updEntry{version: uint64(rng.Intn(40)), id: uint64(rng.Intn(8)), cells: mask}
				r.OnUpdate(e.id, table, key, e.version, e.cells)
				ref[k].update(e)
			}
			rs := r.lookup(table, key)
			if rs == nil {
				continue // only an unlock has touched it: nothing to hold
			}
			if got, want := r.holderOf(rs, mask), ref[k].holderOf(mask); got != want {
				t.Fatalf("seed %d op %d: holderOf(%d, %d, %#b) = %d, want %d", seed, op, table, key, mask, got, want)
			}
			since := uint64(rng.Intn(40))
			if got, want := r.updaterSince(rs, since), ref[k].updaterSince(since); got != want {
				t.Fatalf("seed %d op %d: updaterSince(%d, %d, %d) = %d, want %d", seed, op, table, key, since, got, want)
			}
		}
	}
}

// TestGraphMatchesReference: the one-pass Graph equals graphRef on the
// benchmark's snapshot, on ones with sparse ids (the extreme ones
// included), many labels, a transaction labelled like the
// unattributed node, kinds no recorder emits and cells past the inline
// ones, and on an empty one.
func TestGraphMatchesReference(t *testing.T) {
	odd := func(seed int64) *Snapshot {
		rng := rand.New(rand.NewSource(seed))
		s := &Snapshot{}
		for i := 0; i < 300; i++ {
			ti := TxnInfo{ID: uint64(rng.Intn(1 << 40)), Label: string(rune('a' + rng.Intn(26))), Aborts: rng.Intn(3)}
			if i%50 == 0 {
				ti.Label = unattributedLabel
			}
			if i%7 == 0 {
				ti.State = StateCommitted
				ti.Cause = &CauseInfo{Table: layout.TableID(rng.Intn(3)), Key: layout.Key(rng.Intn(20)), Mask: rng.Uint64() >> rng.Intn(64)}
			}
			s.Txns = append(s.Txns, ti)
		}
		for i := 0; i < 3000; i++ {
			e := Edge{Kind: Kind(rng.Intn(6)), Waiter: s.Txns[rng.Intn(len(s.Txns))].ID, Holder: uint64(rng.Intn(1 << 40)),
				Table: layout.TableID(rng.Intn(3)), Key: layout.Key(rng.Intn(20)), Mask: rng.Uint64() >> rng.Intn(64),
				Wait: sim.Duration(rng.Intn(100))}
			if i%3 == 0 {
				e.Holder = s.Txns[rng.Intn(len(s.Txns))].ID
			}
			s.Edges = append(s.Edges, e)
		}
		return s
	}
	extremes := &Snapshot{Txns: []TxnInfo{{ID: 0, Label: "a"}, {ID: ^uint64(0), Label: "b"}},
		Edges: []Edge{{Waiter: ^uint64(0), Holder: 0}, {Waiter: 0, Holder: ^uint64(0)}}}
	for name, s := range map[string]*Snapshot{"synthetic": syntheticSnapshot(), "odd1": odd(1), "odd2": odd(2),
		"extreme ids": extremes, "tiny": tinySnapshot(t), "empty": {}} {
		if got, want := s.Graph(), graphRef(s); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Graph differs from the reference", name)
		}
	}
}

// graphRef is Graph as it was written first, a map per aggregate
// keyed by strings and structs: the reference the one-pass Graph must
// equal.
func graphRef(s *Snapshot) *Graph {
	label := map[uint64]string{}
	nodes := map[string]*GraphNode{}
	for i := range s.Txns {
		t := &s.Txns[i]
		label[t.ID] = t.Label
		n := nodes[t.Label]
		if n == nil {
			n = &GraphNode{Label: t.Label}
			nodes[t.Label] = n
		}
		n.Txns++
		if t.State == StateCommitted {
			n.Commits++
		}
		n.Aborts += t.Aborts
	}
	labelOf := func(id uint64) string {
		if id == 0 {
			return unattributedLabel
		}
		if l, ok := label[id]; ok {
			return l
		}
		return unattributedLabel
	}

	type edgeKey struct {
		from, to string
		kind     Kind
	}
	edges := map[edgeKey]*GraphEdge{}
	type hotKey struct {
		table layout.TableID
		key   layout.Key
		cell  int
	}
	hots := map[hotKey]*Hotspot{}
	bump := func(k hotKey) *Hotspot {
		h := hots[k]
		if h == nil {
			h = &Hotspot{Table: k.table, Key: k.key, Cell: k.cell}
			hots[k] = h
		}
		return h
	}
	for i := range s.Edges {
		e := &s.Edges[i]
		k := edgeKey{labelOf(e.Waiter), labelOf(e.Holder), e.Kind}
		ge := edges[k]
		if ge == nil {
			ge = &GraphEdge{From: k.from, To: k.to, Kind: k.kind}
			edges[k] = ge
		}
		ge.Count++
		ge.TotalWait += e.Wait
		if e.Kind == KindDependency {
			continue // no record identity on dependency edges
		}
		if e.Mask == 0 {
			h := bump(hotKey{e.Table, e.Key, -1})
			h.Count++
			h.TotalWait += e.Wait
			continue
		}
		for m := e.Mask; m != 0; m &= m - 1 {
			h := bump(hotKey{e.Table, e.Key, bits.TrailingZeros64(m)})
			h.Count++
			h.TotalWait += e.Wait
		}
	}
	for i := range s.Txns {
		t := &s.Txns[i]
		if t.Cause == nil {
			continue
		}
		if t.Cause.Mask == 0 {
			bump(hotKey{t.Cause.Table, t.Cause.Key, -1}).Aborts++
			continue
		}
		for m := t.Cause.Mask; m != 0; m &= m - 1 {
			bump(hotKey{t.Cause.Table, t.Cause.Key, bits.TrailingZeros64(m)}).Aborts++
		}
	}

	g := &Graph{}
	for _, n := range nodes {
		g.Nodes = append(g.Nodes, *n)
	}
	sort.Slice(g.Nodes, func(i, j int) bool { return g.Nodes[i].Label < g.Nodes[j].Label })
	for _, e := range edges {
		g.Edges = append(g.Edges, *e)
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		a, b := &g.Edges[i], &g.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Kind < b.Kind
	})
	for _, h := range hots {
		g.Hotspots = append(g.Hotspots, *h)
	}
	sort.Slice(g.Hotspots, func(i, j int) bool {
		a, b := &g.Hotspots[i], &g.Hotspots[j]
		if a.Count+a.Aborts != b.Count+b.Aborts {
			return a.Count+a.Aborts > b.Count+b.Aborts
		}
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Cell < b.Cell
	})
	g.Cycles = findCycles(g.Edges)
	return g
}
