package causality

import (
	"cmp"
	"fmt"
	"io"
	"slices"

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

// txnRef renders "T42 [label]".
func txnRef(id uint64, label string) string {
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
	holder := "T? (unattributed: no holder recorded)"
	switch {
	case h.Holder != 0:
		holder = txnRef(h.Holder, h.HolderLabel)
	case h.Kind == KindValidation:
		holder = "T? (unattributed: updater aged out of the 16-entry ring)"
	}
	switch h.Kind {
	case KindValidation:
		return fmt.Sprintf("%s failed validation%s; updated by %s", txnRef(h.Txn, h.Label), where, holder)
	case KindLockFail:
		return fmt.Sprintf("%s lost the lock CAS%s against %s", txnRef(h.Txn, h.Label), where, holder)
	case KindDependency:
		return fmt.Sprintf("%s waited %v on local dependency %s", txnRef(h.Txn, h.Label), h.Wait, holder)
	default: // KindLocalWait
		return fmt.Sprintf("%s waited %v%s held by %s", txnRef(h.Txn, h.Label), h.Wait, where, holder)
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

// Graph returns the snapshot's contention graph, which the recorder
// counted as it recorded, with the wait cycles among its edges.
func (s *Snapshot) Graph() *Graph {
	g := &Graph{Nodes: slices.Clone(s.Labels), Edges: slices.Clone(s.LabelEdges),
		Hotspots: slices.Clone(s.Hotspots)}
	g.Cycles = findCycles(g.Edges)
	return g
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
		if e.From != unattributedLabel && e.To != unattributedLabel && !slices.Contains(adj[e.From], e.To) {
			adj[e.From] = append(adj[e.From], e.To)
		}
	}
	starts := make([]string, 0, len(adj))
	for l := range adj {
		starts = append(starts, l)
		slices.Sort(adj[l])
	}
	slices.Sort(starts)

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
			if !onPath[next] {
				dfs(next)
				continue
			}
			// Rotate the cycle to start at its smallest label.
			cyc := path[slices.Index(path, next):]
			least := slices.Index(cyc, slices.Min(cyc))
			rot := append(slices.Clone(cyc[least:]), cyc[:least]...)
			if key := fmt.Sprint(rot); !seen[key] {
				seen[key] = true
				cycles = append(cycles, rot)
			}
		}
		onPath[node] = false
		path = path[:len(path)-1]
	}
	for _, l := range starts {
		dfs(l)
	}
	slices.SortFunc(cycles, func(a, b []string) int {
		if c := cmp.Compare(len(a), len(b)); c != 0 {
			return c
		}
		return slices.Compare(a, b)
	})
	return cycles
}
