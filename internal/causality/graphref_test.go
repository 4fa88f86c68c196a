package causality

import (
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"crest/internal/layout"
	"crest/internal/sim"
)

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
