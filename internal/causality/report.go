package causality

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"crest/internal/layout"
	"crest/internal/sim"
)

// Hop is one link of a blame chain: Txn failed against or waited on
// Holder. The first hop of a chain is the queried transaction's frozen
// abort cause; subsequent hops follow each holder's dominant wait (the
// edge it spent the most virtual time blocked on).
type Hop struct {
	Txn         uint64
	Label       string
	Kind        Kind
	Table       layout.TableID
	Key         layout.Key
	Mask        uint64
	Wait        sim.Duration
	Holder      uint64
	HolderLabel string
}

// maxChainDepth bounds a blame chain when the caller does not.
const maxChainDepth = 8

// BlameChain follows the causal path out of transaction id: its abort
// cause, then the holder's own dominant wait, and so on until a
// transaction with no recorded waits, an unattributed holder, a cycle,
// or maxDepth hops (maxChainDepth when <= 0). It returns nil when the
// transaction is unknown or recorded no conflict.
func (s *Snapshot) BlameChain(id uint64, maxDepth int) []Hop {
	if maxDepth <= 0 {
		maxDepth = maxChainDepth
	}
	var hops []Hop
	seen := map[uint64]bool{}
	cur := id
	for len(hops) < maxDepth && cur != 0 && !seen[cur] {
		seen[cur] = true
		node := s.Txn(cur)
		hop, ok := s.hopFor(cur, node, len(hops) == 0)
		if !ok {
			break
		}
		if node != nil {
			hop.Label = node.Label
		}
		if h := s.Txn(hop.Holder); h != nil {
			hop.HolderLabel = h.Label
		}
		hops = append(hops, hop)
		cur = hop.Holder
	}
	return hops
}

// hopFor picks the edge that best explains txn id. The queried
// transaction (first) uses its frozen abort cause when one exists;
// every transaction falls back to its dominant edge — maximum virtual
// wait, newest sequence on ties.
func (s *Snapshot) hopFor(id uint64, node *TxnInfo, first bool) (Hop, bool) {
	if first && node != nil && node.Cause != nil {
		c := node.Cause
		h := Hop{Txn: id, Kind: c.Kind, Table: c.Table, Key: c.Key, Mask: c.Mask, Holder: c.Holder}
		for i := range s.Edges {
			if s.Edges[i].Seq == c.Seq {
				h.Wait = s.Edges[i].Wait
				break
			}
		}
		return h, true
	}
	best := -1
	for i := range s.Edges {
		e := &s.Edges[i]
		if e.Waiter != id {
			continue
		}
		if best < 0 || e.Wait > s.Edges[best].Wait ||
			(e.Wait == s.Edges[best].Wait && e.Seq > s.Edges[best].Seq) {
			best = i
		}
	}
	if best < 0 {
		return Hop{}, false
	}
	e := &s.Edges[best]
	return Hop{Txn: id, Kind: e.Kind, Table: e.Table, Key: e.Key, Mask: e.Mask,
		Wait: e.Wait, Holder: e.Holder}, true
}

// cellSet renders a cell mask ("cells {0,2}", "record" for mask 0).
func cellSet(mask uint64) string {
	if mask == 0 {
		return "record"
	}
	out := "cell"
	n := 0
	for i := 0; i < 64; i++ {
		if mask&(1<<uint(i)) != 0 {
			n++
		}
	}
	if n > 1 {
		out += "s"
	}
	out += " {"
	firstBit := true
	for i := 0; i < 64; i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if !firstBit {
			out += ","
		}
		out += fmt.Sprint(i)
		firstBit = false
	}
	return out + "}"
}

// txnRef renders "T42 [label]" ("T?" for an unattributed holder).
func txnRef(id uint64, label string) string {
	if id == 0 {
		return "T? (unattributed: updater aged out of the 16-entry ring)"
	}
	if label == "" {
		return fmt.Sprintf("T%d", id)
	}
	return fmt.Sprintf("T%d [%s]", id, label)
}

// WriteBlame renders transaction id's blame chain as indented text,
// one hop per line with per-hop virtual durations. It errors when the
// transaction is unknown.
func WriteBlame(w io.Writer, s *Snapshot, id uint64) error {
	node := s.Txn(id)
	if node == nil {
		return fmt.Errorf("causality: unknown txn %d (recorded %d txns, %d evicted)",
			id, len(s.Txns), s.TxnsDropped)
	}
	switch {
	case node.State == StateCommitted && node.Aborts > 0:
		fmt.Fprintf(w, "%s committed at %v after %d aborted attempt(s) (last: %s)\n",
			txnRef(id, node.Label), node.End, node.Aborts, node.Reason)
	case node.State == StateCommitted:
		fmt.Fprintf(w, "%s committed at %v with no recorded conflicts\n",
			txnRef(id, node.Label), node.End)
		return nil
	case node.State == StateAborted:
		fmt.Fprintf(w, "%s aborted at %v on attempt %d (%s)\n",
			txnRef(id, node.Label), node.End, node.Attempt, node.Reason)
	default:
		fmt.Fprintf(w, "%s still pending at the snapshot\n", txnRef(id, node.Label))
	}
	hops := s.BlameChain(id, 0)
	if len(hops) == 0 {
		fmt.Fprintf(w, "  no conflict edges recorded for this transaction\n")
		return nil
	}
	for i, h := range hops {
		indent := ""
		for j := 0; j < i; j++ {
			indent += "  "
		}
		fmt.Fprintf(w, "  %s└─ %s\n", indent, hopLine(h))
	}
	last := hops[len(hops)-1]
	if end := s.Txn(last.Holder); end != nil {
		indent := ""
		for j := 0; j < len(hops); j++ {
			indent += "  "
		}
		switch end.State {
		case StateCommitted:
			fmt.Fprintf(w, "  %s└─ %s committed at %v\n", indent, txnRef(end.ID, end.Label), end.End)
		case StateAborted:
			fmt.Fprintf(w, "  %s└─ %s itself aborted at %v (%s)\n",
				indent, txnRef(end.ID, end.Label), end.End, end.Reason)
		}
	}
	return nil
}

// hopLine renders one hop as prose.
func hopLine(h Hop) string {
	where := ""
	if h.Kind != KindDependency {
		where = fmt.Sprintf(" on (table %d, key %d, %s)", h.Table, h.Key, cellSet(h.Mask))
	}
	switch h.Kind {
	case KindValidation:
		return fmt.Sprintf("%s failed validation%s; updated by %s",
			txnRef(h.Txn, h.Label), where, txnRef(h.Holder, h.HolderLabel))
	case KindLockFail:
		return fmt.Sprintf("%s lost the lock CAS%s against %s",
			txnRef(h.Txn, h.Label), where, txnRef(h.Holder, h.HolderLabel))
	case KindDependency:
		return fmt.Sprintf("%s waited %v on local dependency %s",
			txnRef(h.Txn, h.Label), h.Wait, txnRef(h.Holder, h.HolderLabel))
	default: // KindLocalWait
		return fmt.Sprintf("%s waited %v%s held by %s",
			txnRef(h.Txn, h.Label), h.Wait, where, txnRef(h.Holder, h.HolderLabel))
	}
}

// GraphNode aggregates the transactions sharing one workload label.
type GraphNode struct {
	Label   string `json:"label"`
	Txns    int    `json:"txns"`
	Commits int    `json:"commits"`
	Aborts  int    `json:"aborts"` // aborted attempts across the label's txns
}

// GraphEdge aggregates every edge between two labels of one kind.
type GraphEdge struct {
	From      string       `json:"from"` // waiter label
	To        string       `json:"to"`   // holder label, "?" when unattributed
	Kind      Kind         `json:"kind"`
	Count     uint64       `json:"count"`
	TotalWait sim.Duration `json:"total_wait"`
}

// Hotspot ranks one cell by the contention recorded against it.
type Hotspot struct {
	Table     layout.TableID `json:"table"`
	Key       layout.Key     `json:"key"`
	Cell      int            `json:"cell"` // -1 = record-level
	Count     uint64         `json:"count"`
	Aborts    uint64         `json:"aborts"` // last-abort causes frozen on this cell
	TotalWait sim.Duration   `json:"total_wait"`
}

// Graph is the aggregated contention dependency graph: who waits on
// whom (by workload label), where (hotspot ranking), and whether the
// waiting is cyclic.
type Graph struct {
	Nodes    []GraphNode `json:"nodes"`    // sorted by label
	Edges    []GraphEdge `json:"edges"`    // sorted by (from, to, kind)
	Hotspots []Hotspot   `json:"hotspots"` // most contended first
	Cycles   [][]string  `json:"cycles"`   // label cycles among wait edges
}

// unattributedLabel names the graph node standing in for holders the
// recorder could not identify.
const unattributedLabel = "?"

// Graph aggregates the snapshot in one pass over its transactions and
// one over its edges, and copies its hotspot ranking, which the
// recorder counted as it recorded. Labels are interned once, and a
// transaction id maps to its label's index; edges aggregate into a
// dense (from, to, kind) table of those indices. All orderings are
// deterministic.
func (s *Snapshot) Graph() *Graph {
	var names []string // interned labels; the first len(g.Nodes) are the nodes'
	index := map[string]int32{}
	intern := func(l string) int32 {
		i, ok := index[l]
		if !ok {
			i = int32(len(names))
			index[l] = i
			names = append(names, l)
		}
		return i
	}
	var base, top uint64 // the smallest and largest transaction id
	for i := range s.Txns {
		if id := s.Txns[i].ID; i == 0 || id < base {
			base = id
		}
		top = max(top, s.Txns[i].ID)
	}
	g := &Graph{}
	ids := newKeyIndex(top-base, len(s.Txns)) // id - base -> label
	for i := range s.Txns {
		t := &s.Txns[i]
		l := intern(t.Label)
		if int(l) == len(g.Nodes) {
			g.Nodes = append(g.Nodes, GraphNode{Label: t.Label})
		}
		ids.put(t.ID-base, l)
		n := &g.Nodes[l]
		n.Txns++
		if t.State == StateCommitted {
			n.Commits++
		}
		n.Aborts += t.Aborts
	}
	unattributed := intern(unattributedLabel)
	labelOf := func(id uint64) uint64 {
		if id != 0 && id >= base {
			if l, ok := ids.get(id - base); ok {
				return uint64(l)
			}
		}
		return uint64(unattributed)
	}

	n := uint64(len(names))
	edges := newKeyIndex(n*n<<8-1, len(s.Edges)) // (from, to, kind) -> index in g.Edges
	for i := range s.Edges {
		e := &s.Edges[i]
		from, to := labelOf(e.Waiter), labelOf(e.Holder)
		k := (from*n+to)<<8 | uint64(e.Kind)
		j, ok := edges.get(k)
		if !ok {
			j = int32(len(g.Edges))
			edges.put(k, j)
			g.Edges = append(g.Edges, GraphEdge{From: names[from], To: names[to], Kind: e.Kind})
		}
		ge := &g.Edges[j]
		ge.Count++
		ge.TotalWait += e.Wait
	}

	slices.SortFunc(g.Nodes, func(a, b GraphNode) int { return strings.Compare(a.Label, b.Label) })
	slices.SortFunc(g.Edges, func(a, b GraphEdge) int {
		if c := strings.Compare(a.From, b.From); c != 0 {
			return c
		}
		if c := strings.Compare(a.To, b.To); c != 0 {
			return c
		}
		return cmp.Compare(a.Kind, b.Kind)
	})
	g.Hotspots = slices.Clone(s.Hotspots)
	g.Cycles = findCycles(g.Edges)
	return g
}

// keyIndex maps integer keys up to a known largest to int32 values: a
// dense table while that key is within a few times the entries
// expected, a map past it.
type keyIndex struct {
	dense  []int32 // 1 + value; 0 = absent
	sparse map[uint64]int32
}

func newKeyIndex(largest uint64, entries int) keyIndex {
	if largest < uint64(4*entries+1024) {
		return keyIndex{dense: make([]int32, largest+1)}
	}
	return keyIndex{sparse: make(map[uint64]int32, min(entries, 1<<16))}
}

func (x *keyIndex) get(k uint64) (int32, bool) {
	if x.sparse == nil {
		if k < uint64(len(x.dense)) && x.dense[k] != 0 {
			return x.dense[k] - 1, true
		}
		return 0, false
	}
	v, ok := x.sparse[k]
	return v, ok
}

func (x *keyIndex) put(k uint64, v int32) {
	if x.sparse == nil {
		x.dense[k] = v + 1
		return
	}
	x.sparse[k] = v
}

// maxCycles bounds the wait-cycle report.
const maxCycles = 16

// findCycles detects elementary label cycles among the aggregated
// edges (the unattributed node is excluded — it is a sink, not a
// transaction). Each cycle is rotated to start at its smallest label
// and reported once, in deterministic order.
func findCycles(edges []GraphEdge) [][]string {
	adj := map[string][]string{}
	for _, e := range edges {
		if e.From == unattributedLabel || e.To == unattributedLabel {
			continue
		}
		dup := false
		for _, t := range adj[e.From] {
			if t == e.To {
				dup = true
				break
			}
		}
		if !dup {
			adj[e.From] = append(adj[e.From], e.To)
		}
	}
	starts := make([]string, 0, len(adj))
	for l := range adj {
		starts = append(starts, l)
	}
	sort.Strings(starts)
	for _, l := range starts {
		sort.Strings(adj[l])
	}

	seen := map[string]bool{}
	var cycles [][]string
	var path []string
	onPath := map[string]bool{}
	var dfs func(node string)
	dfs = func(node string) {
		if len(cycles) >= maxCycles {
			return
		}
		path = append(path, node)
		onPath[node] = true
		for _, next := range adj[node] {
			if onPath[next] {
				// Rotate the cycle to start at its smallest label.
				start := -1
				for i, l := range path {
					if l == next {
						start = i
						break
					}
				}
				cyc := append([]string(nil), path[start:]...)
				min := 0
				for i := range cyc {
					if cyc[i] < cyc[min] {
						min = i
					}
				}
				rot := append(append([]string(nil), cyc[min:]...), cyc[:min]...)
				key := fmt.Sprint(rot)
				if !seen[key] {
					seen[key] = true
					cycles = append(cycles, rot)
				}
				continue
			}
			dfs(next)
		}
		onPath[node] = false
		path = path[:len(path)-1]
	}
	for _, l := range starts {
		dfs(l)
	}
	sort.Slice(cycles, func(i, j int) bool {
		a, b := cycles[i], cycles[j]
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return cycles
}
