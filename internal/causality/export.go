package causality

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"crest/internal/layout"
	"crest/internal/trace"
)

// SchemaVersion identifies the JSON layout of a serialized snapshot.
const SchemaVersion = "crest-why/v1"

// jsonDoc is the schema-versioned document: the edge stream and
// transaction nodes the rings held, plus the graph the recorder
// counted over the whole run.
type jsonDoc struct {
	Schema      string    `json:"schema"`
	Dropped     uint64    `json:"dropped_edges"`
	TxnsDropped uint64    `json:"dropped_txns"`
	Txns        []TxnInfo `json:"txns"`
	Edges       []Edge    `json:"edges"`
	Graph       *Graph    `json:"graph"`
}

// WriteJSON serializes the snapshot as schema-versioned JSON
// (crest-why/v1), record by record: the bytes encoding/json indents a
// jsonDoc into, which is what ReadJSON decodes. Output is
// deterministic: same-seed runs produce byte-equal documents.
func WriteJSON(w io.Writer, s *Snapshot) error {
	j := trace.NewJSONWriter(w, true)
	j.Object()
	j.Key("schema").String(SchemaVersion)
	j.Key("dropped_edges").Uint(s.Dropped)
	j.Key("dropped_txns").Uint(s.TxnsDropped)
	j.Key("txns").Array()
	j.Elements(len(s.Txns), func(w *trace.JSONWriter, i int) { writeTxn(w, &s.Txns[i]) })
	j.EndArray()
	j.Key("edges").Array()
	j.Elements(len(s.Edges), func(w *trace.JSONWriter, i int) { writeEdge(w, &s.Edges[i]) })
	j.EndArray()
	j.Key("graph")
	writeGraph(j, s.Graph())
	j.EndObject()
	return j.Close()
}

func writeCells(j *trace.JSONWriter, table layout.TableID, key layout.Key, mask uint64) {
	j.Key("table").Uint(uint64(table))
	j.Key("key").Uint(uint64(key))
	j.Key("mask").Uint(mask)
}

func writeEdge(j *trace.JSONWriter, e *Edge) {
	j.Object()
	j.Key("seq").Uint(e.Seq)
	j.Key("at").Int(int64(e.At))
	j.Key("kind").Uint(uint64(e.Kind))
	j.Key("waiter").Uint(e.Waiter)
	j.Key("holder").Uint(e.Holder)
	writeCells(j, e.Table, e.Key, e.Mask)
	j.Key("wait").Int(int64(e.Wait))
	j.EndObject()
}

func writeTxn(j *trace.JSONWriter, t *TxnInfo) {
	j.Object()
	j.Key("id").Uint(t.ID)
	j.Key("label").String(t.Label)
	j.Key("coord").Uint(t.Coord)
	j.Key("attempts").Int(int64(t.Attempt))
	j.Key("start").Int(int64(t.Start))
	j.Key("end").Int(int64(t.End))
	j.Key("state").Uint(uint64(t.State))
	if t.Reason != "" {
		j.Key("reason").String(t.Reason)
	}
	if t.Aborts != 0 {
		j.Key("aborts").Int(int64(t.Aborts))
	}
	if c := t.Cause; c != nil {
		j.Key("cause").Object()
		j.Key("seq").Uint(c.Seq)
		j.Key("kind").Uint(uint64(c.Kind))
		writeCells(j, c.Table, c.Key, c.Mask)
		j.Key("holder").Uint(c.Holder)
		j.EndObject()
	}
	j.EndObject()
}

// writeList writes items as an array, or null when the slice is nil —
// the graph's lists are appended to, so an empty one is nil.
func writeList[T any](j *trace.JSONWriter, items []T, write func(*T)) {
	if items == nil {
		j.Null()
		return
	}
	j.Array()
	for i := range items {
		write(&items[i])
	}
	j.EndArray()
}

func writeGraph(j *trace.JSONWriter, g *Graph) {
	j.Object()
	j.Key("nodes")
	writeList(j, g.Nodes, func(n *GraphNode) {
		j.Object()
		j.Key("label").String(n.Label)
		j.Key("txns").Int(int64(n.Txns))
		j.Key("commits").Int(int64(n.Commits))
		j.Key("aborts").Int(int64(n.Aborts))
		j.EndObject()
	})
	j.Key("edges")
	writeList(j, g.Edges, func(e *GraphEdge) {
		j.Object()
		j.Key("from").String(e.From)
		j.Key("to").String(e.To)
		j.Key("kind").Uint(uint64(e.Kind))
		j.Key("count").Uint(e.Count)
		j.Key("total_wait").Int(int64(e.TotalWait))
		j.EndObject()
	})
	j.Key("hotspots")
	writeList(j, g.Hotspots, func(h *Hotspot) {
		j.Object()
		j.Key("table").Uint(uint64(h.Table))
		j.Key("key").Uint(uint64(h.Key))
		j.Key("cell").Int(int64(h.Cell))
		j.Key("count").Uint(h.Count)
		j.Key("aborts").Uint(h.Aborts)
		j.Key("total_wait").Int(int64(h.TotalWait))
		j.EndObject()
	})
	j.Key("cycles")
	writeList(j, g.Cycles, func(cyc *[]string) {
		writeList(j, *cyc, func(l *string) { j.String(*l) })
	})
	j.EndObject()
}

// ReadJSON parses a document written by WriteJSON, verifying its
// schema version. It keeps the graph's nodes, edges and hotspots, which
// the rings' edges and transactions cannot rebuild once they evicted;
// Graph finds the cycles again.
func ReadJSON(r io.Reader) (*Snapshot, error) {
	var doc jsonDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, err
	}
	if doc.Schema != SchemaVersion {
		return nil, fmt.Errorf("causality: snapshot schema %q, want %q", doc.Schema, SchemaVersion)
	}
	s := &Snapshot{Edges: doc.Edges, Txns: doc.Txns, Dropped: doc.Dropped, TxnsDropped: doc.TxnsDropped}
	if g := doc.Graph; g != nil {
		s.Labels, s.LabelEdges, s.Hotspots = g.Nodes, g.Edges, g.Hotspots
	}
	if s.Edges == nil {
		s.Edges = []Edge{}
	}
	if s.Txns == nil {
		s.Txns = []TxnInfo{}
	}
	return s, nil
}

// dotColor styles the graph's edges per kind.
func dotColor(k Kind) string {
	switch k {
	case KindLockFail:
		return "firebrick"
	case KindValidation:
		return "darkorange"
	case KindDependency:
		return "steelblue"
	default: // KindLocalWait
		return "gray40"
	}
}

// dotEscape quotes a string for a double-quoted DOT ID.
func dotEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// maxDOTHotspots bounds the hotspot table embedded in the DOT comment
// header.
const maxDOTHotspots = 10

// WriteDOT renders the snapshot's aggregated contention graph as
// Graphviz DOT: one node per workload label (with txn/abort counts),
// one edge per (waiter label, holder label, kind) with its count and
// total virtual wait, the top hotspots as comments, and any wait
// cycles flagged. Output is deterministic.
func WriteDOT(w io.Writer, s *Snapshot) error {
	g := s.Graph()
	var b strings.Builder
	b.WriteString("digraph crest_why {\n")
	b.WriteString("  // CREST contention dependency graph (crest-why)\n")
	for i, h := range g.Hotspots {
		if i >= maxDOTHotspots {
			break
		}
		cell := "record"
		if h.Cell >= 0 {
			cell = fmt.Sprintf("cell %d", h.Cell)
		}
		fmt.Fprintf(&b, "  // hotspot %d: table %d key %d %s — %d conflicts, %d aborts, %v waited\n",
			i+1, h.Table, h.Key, cell, h.Count, h.Aborts, h.TotalWait)
	}
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=box, fontname=\"Helvetica\"];\n")
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "  \"%s\" [label=\"%s\\n%d txns, %d aborted attempts\"];\n",
			dotEscape(n.Label), dotEscape(n.Label), n.Txns, n.Aborts)
	}
	fmt.Fprintf(&b, "  \"%s\" [label=\"unattributed\", style=dashed];\n", unattributedLabel)
	for _, e := range g.Edges {
		label := fmt.Sprintf("%s ×%d", e.Kind, e.Count)
		if e.TotalWait > 0 {
			label += fmt.Sprintf(", %v", e.TotalWait)
		}
		fmt.Fprintf(&b, "  \"%s\" -> \"%s\" [label=\"%s\", color=%s];\n",
			dotEscape(e.From), dotEscape(e.To), dotEscape(label), dotColor(e.Kind))
	}
	for _, cyc := range g.Cycles {
		fmt.Fprintf(&b, "  // wait cycle: %s -> %s\n",
			strings.Join(cyc, " -> "), cyc[0])
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
