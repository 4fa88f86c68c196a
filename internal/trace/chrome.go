package trace

import (
	"bytes"
	"io"
	"math"
	"math/bits"
	"slices"
	"strconv"

	"crest/internal/sim"
)

// Chrome trace_event export (the JSON array format understood by
// Perfetto and chrome://tracing). Each coordinator becomes a thread of
// one "cluster" process; transaction attempts, phase slices and RDMA
// round-trips become nested "X" (complete) events; conflicts, lock
// traffic, aborts and EN overflows become "i" (instant) events.
// Timestamps are virtual microseconds, so the timeline shows exactly
// what the simulator charged, with zero probe distortion.
//
// The document is {"traceEvents":[…],"displayTimeUnit":"ms"}; an event
// is {name, cat?, ph, ts, dur?, pid, tid, s?, args} with cat, dur and s
// left out when empty, and args' keys in alphabetical order — the bytes
// json.Encoder made of a struct with omitempty tags and a map.

const pidCluster = 1 // coordinator threads

func usTime(t sim.Time) float64    { return float64(t) / 1e3 }
func usDur(d sim.Duration) float64 { return float64(d) / 1e3 }

// chromeWriter streams trace events through the shared JSON writer,
// assembling names and hex masks in the writer's scratch, so each of
// Elements' goroutines has its own.
type chromeWriter struct {
	*JSONWriter
}

// text returns the writer's scratch, emptied.
func (c chromeWriter) text() []byte {
	if c.scratch == nil {
		c.scratch = make([]byte, 0, 64)
	}
	return c.scratch[:0]
}

// event writes one event up to and including the opening of its args
// object; the caller writes the args and calls end.
func (c chromeWriter) event(cat, ph string, ts, dur float64, pid int, tid uint64) {
	if cat != "" {
		c.Key("cat").String(cat)
	}
	c.Key("ph").String(ph)
	c.Key("ts")
	c.micros(ts)
	if dur != 0 {
		c.Key("dur")
		c.micros(dur)
	}
	c.Key("pid").Int(int64(pid))
	c.Key("tid").Uint(tid)
	if ph == "i" {
		c.Key("s").String("t")
	}
	c.Key("args").Object()
}

// micros writes a time or duration in microseconds as Float would.
// Where v is a whole number of nanoseconds over 1e3 (it is, except for
// some RTT starts, usTime(At)-lat) and under 2^40 µs, the shortest
// decimal that round-trips is the nanoseconds' thousandths with the
// trailing zeros cut, and integer formatting writes it far cheaper.
func (c chromeWriter) micros(v float64) {
	ns := math.Round(v * 1e3)
	if math.Signbit(v) || v >= 1<<40 || ns/1e3 != v {
		c.Float(v)
		return
	}
	c.sep()
	n := uint64(ns)
	c.buf = strconv.AppendUint(c.buf, n/1000, 10)
	if frac := n % 1000; frac != 0 {
		c.buf = append(c.buf, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
		c.buf = bytes.TrimRight(c.buf, "0")
	}
}

// name opens an event object at its name, which the caller writes
// before calling event.
func (c chromeWriter) name() *JSONWriter {
	c.Object()
	return c.Key("name")
}

func (c chromeWriter) end() {
	c.EndObject()
	c.EndObject()
}

// maskArg writes the "mask" arg, in hex.
func (c chromeWriter) maskArg(mask uint64) {
	c.Key("mask").StringBytes(strconv.AppendUint(append(c.text(), "0x"...), mask, 16))
}

// WriteChromeTrace renders the snapshot as Chrome trace_event JSON,
// event by event. Output is deterministic: same snapshot, same bytes.
func WriteChromeTrace(w io.Writer, s *Snapshot) error {
	c := chromeWriter{NewJSONWriter(w, false)}
	c.Object()
	c.Key("traceEvents").Array()

	c.name().String("process_name")
	c.event("", "M", 0, 0, pidCluster, 0)
	c.Key("name").String("crest cluster")
	c.end()

	spans := s.Spans()

	// Thread metadata: one named row per coordinator, sorted by id.
	coords := map[uint64]bool{}
	for i := range spans {
		coords[spans[i].Coord] = true
	}
	ids := make([]uint64, 0, len(coords))
	for id := range coords {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		c.name().String("thread_name")
		c.event("", "M", 0, 0, pidCluster, id)
		c.Key("name").StringBytes(strconv.AppendUint(append(c.text(), "coordinator "...), id, 10))
		c.end()
	}

	// Transaction attempts and their phase slices, then the raw stream.
	c.Elements(len(spans), func(w *JSONWriter, i int) { chromeWriter{w}.span(&spans[i]) })
	c.Elements(len(s.Events), func(w *JSONWriter, i int) { chromeWriter{w}.raw(s, &s.Events[i]) })

	c.EndArray()
	c.Key("displayTimeUnit").String("ms")
	c.EndObject()
	return c.Close()
}

// span writes a transaction's attempts, each followed by its phase
// slices.
func (c chromeWriter) span(sv *SpanView) {
	for j := range sv.Attempts {
		a := &sv.Attempts[j]
		end := a.End
		for _, ps := range a.Slices {
			if ps.End > end {
				end = ps.End // abort cleanup extends past the measured end
			}
		}
		c.name().StringBytes(strconv.AppendInt(append(append(c.text(), sv.Label...), " #"...), int64(a.N), 10))
		c.event("txn", "X", usTime(a.Start), usDur(end.Sub(a.Start)), pidCluster, sv.Coord)
		c.Key("attempt").Int(int64(a.N))
		c.Key("falseConflict").Bool(a.False)
		c.Key("outcome")
		if a.Committed {
			c.String("commit")
		} else {
			c.StringBytes(append(append(c.text(), "abort:"...), a.Reason...))
		}
		c.Key("rtts").Int(int64(a.TotalRTTs()))
		c.Key("span").Uint(sv.ID)
		c.Key("txn").Uint(sv.Txn)
		c.end()
		for _, ps := range a.Slices {
			if ps.Dur() == 0 {
				continue
			}
			c.name().String(ps.Phase.String())
			c.event("phase", "X", usTime(ps.Start), usDur(ps.Dur()), pidCluster, sv.Coord)
			c.Key("attempt").Int(int64(a.N))
			c.Key("span").Uint(sv.ID)
			c.end()
		}
	}
}

// raw writes one event of the raw stream: a round-trip as a nested
// slice, a CC event as an instant, nothing for the other kinds.
func (c chromeWriter) raw(s *Snapshot, e *Event) {
	tid := uint64(e.Coord)
	switch e.Kind {
	case KindRTT:
		lat := usDur(sim.Duration(e.Latency))
		c.name().StringBytes(strconv.AppendUint(append(c.text(), "RTT x"...), uint64(e.Ops), 10))
		c.event("rdma", "X", usTime(e.At)-lat, lat, pidCluster, tid)
		c.Key("attempt").Uint(uint64(e.Attempt))
		c.Key("bytes").Uint(uint64(e.Bytes))
		c.Key("ops").Uint(uint64(e.Ops))
		c.Key("phase").String(e.Phase.String())
		c.Key("qp").Uint(uint64(e.QP))
		c.Key("region").Uint(uint64(e.Region))
		c.Key("span").Uint(e.Span)
		c.end()
	case KindConflict, KindLockAcquire, KindLockPiggyback, KindLockRelease:
		cat := "lock"
		if e.Kind == KindConflict {
			cat = "cc"
		}
		c.name().String(e.Kind.String())
		c.event(cat, "i", usTime(e.At), 0, pidCluster, tid)
		c.Key("key").Uint(uint64(e.Key))
		c.maskArg(e.Mask)
		c.Key("span").Uint(e.Span)
		c.Key("table").Uint(uint64(e.Table))
		c.end()
	case KindENOverflow:
		c.name().String("en-overflow")
		c.event("cc", "i", usTime(e.At), 0, pidCluster, tid)
		c.Key("cell").Uint(uint64(bits.TrailingZeros64(e.Mask)))
		c.Key("key").Uint(uint64(e.Key))
		c.Key("span").Uint(e.Span)
		c.Key("table").Uint(uint64(e.Table))
		c.end()
	case KindTxnAbort:
		c.name().StringBytes(append(append(c.text(), "abort:"...), s.Str(e.Reason)...))
		c.event("txn", "i", usTime(e.At), 0, pidCluster, tid)
		c.Key("attempt").Uint(uint64(e.Attempt))
		c.Key("falseConflict").Bool(e.False)
		c.Key("span").Uint(e.Span)
		c.end()
	}
}
