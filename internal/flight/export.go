package flight

import (
	"encoding/json"
	"fmt"
	"io"

	"crest/internal/sim"
	"crest/internal/trace"
)

// SchemaVersion identifies the export format. Bump on any change to
// the document shape.
const SchemaVersion = "crest-flight/v1"

// jsonDoc is the export envelope. Budgets serialize as fixed arrays in
// Component order and attempt detail in trace.Phase / VerbClass order;
// the schema string pins those orders.
type jsonDoc struct {
	Schema    string      `json:"schema"`
	Dropped   uint64      `json:"dropped"`
	Txns      []TxnBudget `json:"txns"`
	Exemplars []Exemplar  `json:"exemplars"`
}

// WriteJSON exports a snapshot, record by record: the bytes
// encoding/json indents a jsonDoc into, which is what ReadJSON decodes.
// Deterministic: same snapshot, same bytes — and ReadJSON followed by
// WriteJSON reproduces the input byte for byte.
func WriteJSON(w io.Writer, s *Snapshot) error {
	j := trace.NewJSONWriter(w, true)
	j.Object()
	j.Key("schema").String(SchemaVersion)
	j.Key("dropped").Uint(s.Dropped)
	j.Key("txns").Array()
	j.Elements(len(s.Txns), func(w *trace.JSONWriter, i int) {
		w.Object()
		writeSummary(w, &s.Txns[i])
		w.EndObject()
	})
	j.EndArray()
	j.Key("exemplars").Array()
	for i := range s.Exemplars {
		x := &s.Exemplars[i]
		j.Object()
		writeSummary(j, &x.TxnBudget)
		j.Key("bucket").Uint(uint64(x.Bucket))
		j.Key("detail").Array()
		for k := range x.Detail {
			writeAttempt(j, &x.Detail[k])
		}
		j.EndArray()
		j.EndObject()
	}
	j.EndArray()
	j.EndObject()
	return j.Close()
}

// writeSummary writes a summary's fields into the open object (an
// exemplar embeds them).
func writeSummary(j *trace.JSONWriter, t *TxnBudget) {
	j.Key("id").Uint(t.ID)
	j.Key("label").String(t.Label)
	j.Key("coord").Uint(t.Coord)
	j.Key("shard").Int(int64(t.Shard))
	j.Key("begin").Int(int64(t.Begin))
	j.Key("end").Int(int64(t.End))
	j.Key("attempts").Int(int64(t.Attempts))
	j.Key("committed").Bool(t.Committed)
	if t.Reason != "" {
		j.Key("reason").String(t.Reason)
	}
	writeDurations(j.Key("budget"), t.Budget[:])
	if t.WaitHolder != 0 {
		j.Key("waitHolder").Uint(t.WaitHolder)
	}
	if t.WaitMax != 0 {
		j.Key("waitMax").Int(int64(t.WaitMax))
	}
}

func writeDurations(j *trace.JSONWriter, ds []sim.Duration) {
	j.Array()
	for _, d := range ds {
		j.Int(int64(d))
	}
	j.EndArray()
}

func writeAttempt(j *trace.JSONWriter, a *AttemptInfo) {
	j.Object()
	j.Key("start").Int(int64(a.Start))
	j.Key("end").Int(int64(a.End))
	j.Key("outcome").String(a.Outcome)
	if a.Gap != 0 {
		j.Key("gap").Int(int64(a.Gap))
	}
	if a.GapQueue {
		j.Key("gapQueue").Bool(true)
	}
	if a.Folded != 0 {
		j.Key("folded").Int(int64(a.Folded))
	}
	writeDurations(j.Key("phases"), a.Phases[:])
	writeDurations(j.Key("wire"), a.Wire[:])
	writeDurations(j.Key("wirePhase"), a.WirePhase[:])
	writeDurations(j.Key("waitPhase"), a.WaitPhase[:])
	writeDurations(j.Key("backoffPhase"), a.BackoffPhase[:])
	if a.Wait != 0 {
		j.Key("wait").Int(int64(a.Wait))
	}
	if a.WaitMax != 0 {
		j.Key("waitMax").Int(int64(a.WaitMax))
	}
	if a.WaitHolder != 0 {
		j.Key("waitHolder").Uint(a.WaitHolder)
	}
	j.EndObject()
}

// ReadJSON parses an export written by WriteJSON, verifying the
// schema version.
func ReadJSON(r io.Reader) (*Snapshot, error) {
	var doc jsonDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("flight: decoding export: %w", err)
	}
	if doc.Schema != SchemaVersion {
		return nil, fmt.Errorf("flight: schema %q, want %q", doc.Schema, SchemaVersion)
	}
	s := &Snapshot{Txns: doc.Txns, Exemplars: doc.Exemplars, Dropped: doc.Dropped}
	if s.Txns == nil {
		s.Txns = []TxnBudget{}
	}
	if s.Exemplars == nil {
		s.Exemplars = []Exemplar{}
	}
	for i := range s.Exemplars {
		if s.Exemplars[i].Detail == nil {
			s.Exemplars[i].Detail = []AttemptInfo{}
		}
	}
	return s, nil
}
