package causality

import (
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"crest/internal/layout"
	"crest/internal/sim"
	"crest/internal/trace"
)

// TestGraphMatchesReference: the graph the recorder counts as it
// records equals graphRef, which rebuilds it from the edges and
// transactions the rings hold, on streams the rings keep whole: one
// recorder's, a two- and a four-way partitioned one's, a tiny one and
// an empty one.
func TestGraphMatchesReference(t *testing.T) {
	for name, s := range map[string]*Snapshot{"recorded1": recorded(1, 1, 0), "recorded2": recorded(1, 2, 0),
		"partitioned2": recorded(2, 3, 0), "partitioned4": recorded(4, 4, 0), "tiny": tinySnapshot(t),
		"empty": NewRecorder(Options{}).Snapshot()} {
		if s.Dropped != 0 || s.TxnsDropped != 0 {
			t.Fatalf("%s: the snapshot dropped part of the stream", name)
		}
		if got, want := s.Graph(), graphRef(s); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Graph differs from the reference:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestHotspotsOutliveTheRing: the ranking counts every edge as it is
// recorded, so a recorder whose ring holds 64 edges ranks a stream as
// one that keeps it all.
func TestHotspotsOutliveTheRing(t *testing.T) {
	fs, ss := recorded(1, 1, 0), recorded(1, 1, 64)
	if ss.Dropped == 0 {
		t.Fatal("the small ring dropped no edge")
	}
	if got, want := ss.Graph().Hotspots, fs.Graph().Hotspots; len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("a 64-edge ring ranks %d hotspots, the full one %d; the rankings differ", len(got), len(want))
	}
}

// TestGraphOutlivesTheRing: the whole graph — nodes, label edges and
// hotspots — is counted as recorded, so a recorder whose edge ring
// holds 64 edges has the graph of one that keeps the stream whole,
// unsharded and on four partitions.
func TestGraphOutlivesTheRing(t *testing.T) {
	for _, parts := range []int{1, 4} {
		full, small := recorded(parts, 5, 0), recorded(parts, 5, 64)
		if small.Dropped == 0 || full.Dropped != 0 {
			t.Fatalf("parts=%d: the rings dropped %d and %d edges, want some and none", parts, small.Dropped, full.Dropped)
		}
		if got, want := small.Graph(), full.Graph(); len(want.Edges) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("parts=%d: a 64-edge ring's graph differs from the whole stream's:\n got %+v\nwant %+v", parts, got, want)
		}
	}
}

// recorded is the snapshot of recordStream's stream on a recorder of
// parts partitions whose edge ring holds edgeCap edges (the default
// when 0).
func recorded(parts int, seed int64, edgeCap int) *Snapshot {
	r := NewRecorder(Options{Capacity: edgeCap})
	rs := []*Recorder{r}
	if parts > 1 {
		rs = rs[:0]
		for i := 0; i < parts; i++ {
			rs = append(rs, r.Shard(i, parts))
		}
	}
	recordStream(rs, seed)
	return r.Snapshot()
}

// recordStream records a random stream into the recorders (one, or the
// children of a partitioned one; transaction i runs on rs[i%len(rs)]):
// 300 transactions with sparse ids, rising in begin order as the
// engines' do, the extreme ones included, and 27 labels, one the
// unattributed node's; 3000 edges of every kind, on cells past the
// inline ones, with random holders, a third of them transactions of
// the waiter's partition; and along the way aborts that freeze a
// cause, aborts of edge-free attempts, retries, commits, and aborts
// after a commit.
func recordStream(rs []*Recorder, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]uint64, 300)
	for i := range ids {
		ids[i] = uint64(rng.Intn(1 << 40))
	}
	ids[0], ids[1] = 0, ^uint64(0)
	slices.Sort(ids)
	txns := make([]*Txn, len(ids))
	for i, id := range ids {
		label := string(rune('a' + rng.Intn(26)))
		if i%50 == 0 {
			label = unattributedLabel
		}
		txns[i] = rs[i%len(rs)].Begin(0, &trace.Span{ID: id, Label: label, Attempt: 1})
	}
	for i := 0; i < 3000; i++ {
		j := rng.Intn(len(txns))
		r, tx, at := rs[j%len(rs)], txns[j], sim.Time(i)
		holder := uint64(rng.Intn(1 << 40))
		if i%3 == 0 {
			holder = txns[rng.Intn(len(txns)/len(rs))*len(rs)+j%len(rs)].ID
		}
		r.edge(at, tx, Kind(rng.Intn(int(numKinds))), holder, layout.TableID(rng.Intn(3)), layout.Key(rng.Intn(20)),
			rng.Uint64()>>rng.Intn(64), sim.Duration(rng.Intn(100)))
		switch rng.Intn(8) {
		case 0:
			r.Abort(at, tx, "lock-conflict")
			r.Retry(tx)
		case 1:
			r.Retry(tx)
			r.Abort(at, tx, "reverse-order")
		case 2:
			r.Commit(at, tx)
		}
	}
}

// graphRef is Graph as it was written first, a map per aggregate
// keyed by strings and structs, over the edges and transactions the
// rings hold: the reference the counted graph must equal where the
// rings kept the whole stream.
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
		if t.Cause == nil || t.Cause.Kind == KindDependency {
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
