package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"testing"

	"crest/internal/causality"
	"crest/internal/flight"
	"crest/internal/metrics"
	"crest/internal/sim"
	"crest/internal/trace"
)

// The exporters of trace, causality and flight write their documents
// with trace.JSONWriter; until PR 21 they built them with encoding/json.
// This file keeps that code as the reference — the three ref* functions
// are the old exporters, reading the same snapshots — and the tests
// compare the two byte for byte: over the digestCfg runs (from
// TestObserverExportDigests), over empty snapshots, and over strings and
// numbers chosen to hit every escape and number format.

type refChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type refChromeDoc struct {
	TraceEvents     []refChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
}

func refChromeTrace(w io.Writer, s *trace.Snapshot) error {
	const pidCluster = 1
	usTime := func(t sim.Time) float64 { return float64(t) / 1e3 }
	usDur := func(d sim.Duration) float64 { return float64(d) / 1e3 }
	cellKey := func(e *trace.Event) map[string]any {
		return map[string]any{"table": int(e.Table), "key": uint64(e.Key), "mask": fmt.Sprintf("0x%x", e.Mask)}
	}
	var evs []refChromeEvent
	evs = append(evs, refChromeEvent{
		Name: "process_name", Ph: "M", Pid: pidCluster,
		Args: map[string]any{"name": "crest cluster"},
	})
	spans := s.Spans()
	coords := map[uint64]bool{}
	for i := range spans {
		coords[spans[i].Coord] = true
	}
	ids := make([]uint64, 0, len(coords))
	for id := range coords {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		evs = append(evs, refChromeEvent{
			Name: "thread_name", Ph: "M", Pid: pidCluster, Tid: id,
			Args: map[string]any{"name": fmt.Sprintf("coordinator %d", id)},
		})
	}
	for i := range spans {
		sv := &spans[i]
		for j := range sv.Attempts {
			a := &sv.Attempts[j]
			end := a.End
			for _, ps := range a.Slices {
				if ps.End > end {
					end = ps.End
				}
			}
			outcome := "commit"
			if !a.Committed {
				outcome = "abort:" + a.Reason
			}
			evs = append(evs, refChromeEvent{
				Name: fmt.Sprintf("%s #%d", sv.Label, a.N), Cat: "txn", Ph: "X",
				Ts: usTime(a.Start), Dur: usDur(end.Sub(a.Start)), Pid: pidCluster, Tid: sv.Coord,
				Args: map[string]any{
					"span": sv.ID, "txn": sv.Txn, "attempt": a.N,
					"outcome": outcome, "falseConflict": a.False, "rtts": a.TotalRTTs(),
				},
			})
			for _, ps := range a.Slices {
				if ps.Dur() == 0 {
					continue
				}
				evs = append(evs, refChromeEvent{
					Name: ps.Phase.String(), Cat: "phase", Ph: "X",
					Ts: usTime(ps.Start), Dur: usDur(ps.Dur()), Pid: pidCluster, Tid: sv.Coord,
					Args: map[string]any{"span": sv.ID, "attempt": a.N},
				})
			}
		}
	}
	for i := range s.Events {
		e := &s.Events[i]
		tid, lat := uint64(e.Coord), sim.Duration(e.Latency)
		switch e.Kind {
		case trace.KindRTT:
			evs = append(evs, refChromeEvent{
				Name: fmt.Sprintf("RTT x%d", e.Ops), Cat: "rdma", Ph: "X",
				Ts: usTime(e.At) - usDur(lat), Dur: usDur(lat),
				Pid: pidCluster, Tid: tid,
				Args: map[string]any{
					"span": e.Span, "attempt": e.Attempt, "phase": e.Phase.String(),
					"qp": e.QP, "region": e.Region, "ops": e.Ops, "bytes": e.Bytes,
				},
			})
		case trace.KindConflict:
			args := cellKey(e)
			args["span"] = e.Span
			evs = append(evs, refChromeEvent{
				Name: "conflict", Cat: "cc", Ph: "i", S: "t",
				Ts: usTime(e.At), Pid: pidCluster, Tid: tid, Args: args,
			})
		case trace.KindLockAcquire, trace.KindLockPiggyback, trace.KindLockRelease:
			args := cellKey(e)
			args["span"] = e.Span
			evs = append(evs, refChromeEvent{
				Name: e.Kind.String(), Cat: "lock", Ph: "i", S: "t",
				Ts: usTime(e.At), Pid: pidCluster, Tid: tid, Args: args,
			})
		case trace.KindENOverflow:
			cell := 0
			for e.Mask>>uint(cell) > 1 {
				cell++
			}
			evs = append(evs, refChromeEvent{
				Name: "en-overflow", Cat: "cc", Ph: "i", S: "t",
				Ts: usTime(e.At), Pid: pidCluster, Tid: tid,
				Args: map[string]any{"table": int(e.Table), "key": uint64(e.Key), "cell": cell, "span": e.Span},
			})
		case trace.KindTxnAbort:
			evs = append(evs, refChromeEvent{
				Name: "abort:" + s.Str(e.Reason), Cat: "txn", Ph: "i", S: "t",
				Ts: usTime(e.At), Pid: pidCluster, Tid: tid,
				Args: map[string]any{"span": e.Span, "attempt": e.Attempt, "falseConflict": e.False},
			})
		}
	}
	return json.NewEncoder(w).Encode(&refChromeDoc{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

func refMarshalIndent(w io.Writer, doc any) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

func refWhyJSON(w io.Writer, s *causality.Snapshot) error {
	doc := struct {
		Schema      string              `json:"schema"`
		Dropped     uint64              `json:"dropped_edges"`
		TxnsDropped uint64              `json:"dropped_txns"`
		Txns        []causality.TxnInfo `json:"txns"`
		Edges       []causality.Edge    `json:"edges"`
		Graph       *causality.Graph    `json:"graph"`
	}{causality.SchemaVersion, s.Dropped, s.TxnsDropped, s.Txns, s.Edges, s.Graph()}
	if doc.Txns == nil {
		doc.Txns = []causality.TxnInfo{}
	}
	if doc.Edges == nil {
		doc.Edges = []causality.Edge{}
	}
	return refMarshalIndent(w, &doc)
}

func refFlightJSON(w io.Writer, s *flight.Snapshot) error {
	doc := struct {
		Schema    string             `json:"schema"`
		Dropped   uint64             `json:"dropped"`
		Txns      []flight.TxnBudget `json:"txns"`
		Exemplars []flight.Exemplar  `json:"exemplars"`
	}{flight.SchemaVersion, s.Dropped, s.Txns, append([]flight.Exemplar{}, s.Exemplars...)}
	if doc.Txns == nil {
		doc.Txns = []flight.TxnBudget{}
	}
	for i := range doc.Exemplars {
		if doc.Exemplars[i].Detail == nil {
			doc.Exemplars[i].Detail = []flight.AttemptInfo{}
		}
	}
	return refMarshalIndent(w, &doc)
}

// sameExport fails t when write and ref produce different bytes.
func sameExport(t *testing.T, what string, write, ref func(io.Writer) error) {
	t.Helper()
	var got, want bytes.Buffer
	if err := write(&got); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := ref(&want); err != nil {
		t.Fatalf("%s: encoding/json reference: %v", what, err)
	}
	if bytes.Equal(got.Bytes(), want.Bytes()) {
		return
	}
	g, w := got.Bytes(), want.Bytes()
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	lo := max(0, i-60)
	t.Errorf("%s: %d bytes written, encoding/json makes %d; they part at byte %d:\n got …%s\nwant …%s",
		what, len(g), len(w), i, g[lo:min(len(g), i+60)], w[lo:min(len(w), i+60)])
}

// exportsMatchEncodingJSON compares the three streamed documents of one
// set of snapshots with their encoding/json references.
func exportsMatchEncodingJSON(t *testing.T, name string, tr *trace.Snapshot, why *causality.Snapshot, fl *flight.Snapshot) {
	t.Helper()
	sameExport(t, name+" chrome trace",
		func(w io.Writer) error { return trace.WriteChromeTrace(w, tr) },
		func(w io.Writer) error { return refChromeTrace(w, tr) })
	sameExport(t, name+" crest-why/v1",
		func(w io.Writer) error { return causality.WriteJSON(w, why) },
		func(w io.Writer) error { return refWhyJSON(w, why) })
	sameExport(t, name+" crest-flight/v1",
		func(w io.Writer) error { return flight.WriteJSON(w, fl) },
		func(w io.Writer) error { return refFlightJSON(w, fl) })
}

// TestChunkedExportsMatchEncodingJSON runs the sharded digest
// configuration long enough that every array the three exporters write
// element by element (trace spans and events, why transactions and
// edges, flight transactions) is long enough to be encoded on two
// goroutines, and compares the documents, written at GOMAXPROCS 1 and
// 2, with encoding/json's.
func TestChunkedExportsMatchEncodingJSON(t *testing.T) {
	cfg := digestCfg(CREST, true)
	cfg.Duration = 8 * sim.Millisecond
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	tr, why, fl := cfg.Trace.Snapshot(), cfg.Why.Snapshot(), cfg.Flight.Snapshot()
	for name, n := range map[string]int{"trace spans": len(tr.Spans()), "trace events": len(tr.Events),
		"why txns": len(why.Txns), "why edges": len(why.Edges), "flight txns": len(fl.Txns)} {
		if n < 4*1024 {
			t.Errorf("%s: %d, too few for the exporters to encode them in chunks of 1024 on two goroutines", name, n)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		exportsMatchEncodingJSON(t, fmt.Sprintf("GOMAXPROCS %d", procs), tr, why, fl)
	}
}

// hostileStrings hit every branch of the string escaper: quotes and
// backslashes, the HTML set, every control byte, DEL, the two line
// separators JSON-in-JavaScript cannot hold, multi-byte runes, and
// UTF-8 cut short or never valid.
var hostileStrings = []string{
	"", "plain", `quo"te`, `back\slash`, "<script>&amp;</script>",
	"\x00\x01\x02\x03\x04\x05\x06\x07\b\t\n\x0b\f\r\x0e\x0f\x10\x1f \x7f",
	"line\u2028sep\u2029end", "héllo wörld ✓ 🚀", "cut\xe2\x82", "\xff\xfe", "\xc0\xaf", "a\xf0\x9f\x9a", "\xed\xa0\x80",
}

// TestExportsMatchEncodingJSONOnEdgeCases builds snapshots no run
// produces — empty ones, and ones whose every string is hostile and
// whose times sit on the float formatter's boundaries — and compares the
// streamed documents with encoding/json's.
func TestExportsMatchEncodingJSONOnEdgeCases(t *testing.T) {
	exportsMatchEncodingJSON(t, "nil recorders", (*trace.Recorder)(nil).Snapshot(), (*causality.Recorder)(nil).Snapshot(), (*flight.Recorder)(nil).Snapshot())
	exportsMatchEncodingJSON(t, "zero snapshots", &trace.Snapshot{}, &causality.Snapshot{}, &flight.Snapshot{})
	exportsMatchEncodingJSON(t, "nil detail", &trace.Snapshot{}, &causality.Snapshot{},
		&flight.Snapshot{Exemplars: []flight.Exemplar{{TxnBudget: flight.TxnBudget{ID: 1}}}})

	// Times in ns whose µs value lands on 0, below 1e-6 (never: 1 ns is
	// 0.001), on the shortest-decimal cases, and past 2^53.
	times := []sim.Time{0, 1, 999, 1000, 1001, 123456789, 1 << 53, 1<<53 + 1, math.MaxInt64}
	rec := trace.NewRecorder(0)
	env := sim.NewEnv(1)
	env.Spawn("edge", func(p *sim.Proc) {
		for i, label := range hostileStrings {
			at := times[i%len(times)]
			s := &trace.Span{Coord: uint64(i + 1), ID: uint64(2*i + 1), Label: label, Attempt: 1}
			rec.Begin(p.Now(), s)
			s.SetTxn(uint64(i) << 40)
			s.Phase = trace.PhaseLock
			rec.EnterPhase(at, s)
			// Latency > At puts the slice's start before time zero.
			rec.RTT(at, s, i, i, i, i, sim.Duration(at)+sim.Duration(i)*7)
			rec.RTT(at, s, 1<<31, 1<<15, 1<<15, 1<<31, math.MaxInt64)
			rec.Conflict(at, s, 1<<31, 1<<63, 1<<63|1)
			rec.LockAcquire(at, s, 0, 0, 0)
			rec.LockPiggyback(at, s, 3, 9, 0b101)
			rec.LockRelease(at, s, 3, 9, math.MaxUint64)
			rec.ENOverflow(at, s, 3, 9, i%64)
			s.Phase = trace.PhaseValidate
			rec.EnterPhase(at+1, s)
			rec.Abort(at+2, s, label, i%2 == 0)
			fresh := &trace.Span{Coord: uint64(i + 1), ID: uint64(2*i + 2), Label: label, Attempt: 1}
			rec.Begin(p.Now(), fresh)
			rec.Commit(at+3, fresh)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}

	why := &causality.Snapshot{Dropped: math.MaxUint64, TxnsDropped: 1}
	fl := &flight.Snapshot{Dropped: 7}
	for i, label := range hostileStrings {
		at := times[i%len(times)]
		ti := causality.TxnInfo{ID: uint64(i + 1), Label: label, Coord: math.MaxUint64, Attempt: -i, Start: at, End: -at,
			State: causality.State(i % 3), Reason: label, Aborts: i}
		if i%2 == 1 {
			ti.Cause = &causality.CauseInfo{Seq: uint64(i), Kind: causality.KindValidation, Table: 1 << 31, Key: 1 << 63, Mask: math.MaxUint64, Holder: uint64(i)}
		}
		why.Txns = append(why.Txns, ti)
		why.Edges = append(why.Edges, causality.Edge{Seq: uint64(i + 1), At: at, Kind: causality.Kind(i % 4), Waiter: uint64(i + 1),
			Holder: uint64(i), Table: 3, Key: 9, Mask: uint64(i), Wait: sim.Duration(at)})
		why.Labels = append(why.Labels, causality.GraphNode{Label: label, Txns: i, Commits: -i, Aborts: i})
		why.LabelEdges = append(why.LabelEdges, causality.GraphEdge{From: label, To: hostileStrings[(i+1)%len(hostileStrings)],
			Kind: causality.Kind(i % 4), Count: math.MaxUint64 - uint64(i), TotalWait: sim.Duration(at)})

		tb := flight.TxnBudget{ID: uint64(i + 1), Label: label, Coord: uint64(i), Shard: -i, Begin: at, End: at + 5, Attempts: i,
			Committed: i%2 == 0, Reason: label, WaitHolder: uint64(i), WaitMax: sim.Duration(-i)}
		for c := range tb.Budget {
			tb.Budget[c] = sim.Duration(int64(at) >> uint(c))
		}
		fl.Txns = append(fl.Txns, tb)
		x := flight.Exemplar{TxnBudget: tb, Bucket: flight.Component(i) % flight.NumComponents}
		for k := 0; k < i%3; k++ {
			a := flight.AttemptInfo{Start: at, End: at + 1, Outcome: label, Gap: sim.Duration(k), GapQueue: k == 1, Folded: k,
				Wait: sim.Duration(k), WaitMax: sim.Duration(-k), WaitHolder: uint64(k)}
			a.Phases[k], a.Wire[k], a.WirePhase[k], a.WaitPhase[k], a.BackoffPhase[k] = 1, 2, 3, 4, 5
			x.Detail = append(x.Detail, a)
		}
		fl.Exemplars = append(fl.Exemplars, x)
	}
	exportsMatchEncodingJSON(t, "hostile", rec.Snapshot(), why, fl)

	// The hostile documents still parse and round-trip through the
	// readers, byte for byte.
	var first, second bytes.Buffer
	if err := causality.WriteJSON(&first, why); err != nil {
		t.Fatal(err)
	}
	back, err := causality.ReadJSON(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("crest-why/v1 of hostile strings does not read back: %v", err)
	}
	if err := causality.WriteJSON(&second, back); err != nil {
		t.Fatal(err)
	}
	// Invalid UTF-8 reads back as U+FFFD, so compare the second
	// generation with a third, not the first.
	third, err := causality.ReadJSON(bytes.NewReader(second.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameExport(t, "crest-why/v1 round trip",
		func(w io.Writer) error { return causality.WriteJSON(w, third) },
		func(w io.Writer) error { _, err := w.Write(second.Bytes()); return err })
}

// failAfter is a writer that accepts n bytes and then fails.
type failAfter struct{ n int }

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.n {
		f.n -= len(p)
		return len(p), nil
	}
	n := f.n
	f.n = 0
	return n, errDiskFull
}

// TestExportWriteErrorsSurface hands every JSON exporter a writer that
// fails after n bytes, n swept from 0 to the document's length: the
// exporter returns that error — it does not panic, and it does not
// report success for a document it could not finish.
func TestExportWriteErrorsSurface(t *testing.T) {
	cfg := digestCfg(CREST, false)
	cfg.Duration = 600 * sim.Microsecond
	cfg.Warmup = 100 * sim.Microsecond
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	tr, me, why, fl := cfg.Trace.Snapshot(), cfg.Metrics.Snapshot(), cfg.Why.Snapshot(), cfg.Flight.Snapshot()
	for name, write := range map[string]func(io.Writer) error{
		"chrome trace":     func(w io.Writer) error { return trace.WriteChromeTrace(w, tr) },
		"crest-metrics/v1": func(w io.Writer) error { return metrics.WriteJSON(w, me) },
		"crest-why/v1":     func(w io.Writer) error { return causality.WriteJSON(w, why) },
		"crest-flight/v1":  func(w io.Writer) error { return flight.WriteJSON(w, fl) },
	} {
		var whole bytes.Buffer
		if err := write(&whole); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		size := whole.Len()
		// Every cut would be a full encode per byte of the document: the
		// stride grows with n, so the first bytes are cut one by one and
		// the rest — where only the flush a cut lands in differs — sampled.
		for n := 0; n < size; n += 1 + n/7 {
			if err := write(&failAfter{n: n}); !errors.Is(err, errDiskFull) {
				t.Fatalf("%s: writer failing after %d of %d bytes: exporter returned %v", name, n, size, err)
			}
		}
		if err := write(&failAfter{n: size}); err != nil {
			t.Fatalf("%s: writer with room for all %d bytes: %v", name, size, err)
		}
	}
}
