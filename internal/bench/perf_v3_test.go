package bench

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// The v3 perf object round-trips: the workers and per-partition fields
// survive encode/decode byte-for-byte, and a perf-free document omits
// them entirely (the deterministic artifact is unchanged).
func TestPerfV3FieldsRoundTrip(t *testing.T) {
	set := &ResultSet{
		Schema:  SchemaVersion,
		Profile: "quick",
		Perf: &BenchPerf{
			SimWallMS:        2.5,
			Events:           100,
			EventsPerSec:     4e4,
			Simulated:        3,
			Workers:          4,
			PartEvents:       []uint64{40, 35, 25},
			PartEventsPerSec: []float64{1.6e4, 1.4e4, 1e4},
		},
	}
	var buf bytes.Buffer
	if err := set.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"workers": 4`, `"part_events"`, `"part_events_per_sec"`} {
		if !strings.Contains(buf.String(), field) {
			t.Errorf("encoded perf lacks %s:\n%s", field, buf.String())
		}
	}
	got, err := DecodeResultSet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Perf, set.Perf) {
		t.Fatalf("perf round-tripped to %+v, want %+v", got.Perf, set.Perf)
	}
	var buf2 bytes.Buffer
	if err := got.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-encoded measured set differs")
	}

	// Single-partition invocations omit the new fields: the perf object
	// of a classic run keeps its v2 shape modulo the workers count.
	set.Perf = &BenchPerf{SimWallMS: 1, Events: 10, EventsPerSec: 1e4, Simulated: 1, Workers: 1}
	buf.Reset()
	if err := set.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "part_events") {
		t.Errorf("unpartitioned perf emitted per-partition fields:\n%s", buf.String())
	}
}

// A matrix invocation with partitioned runs populates the per-partition
// perf fields from the runtime introspection, and the comparison path
// never reads perf (wall-clock must not gate CI).
func TestMatrixPerfCollectsPartitionEvents(t *testing.T) {
	p := matrixProfile()
	spec := p.Spec(CREST, SmallBankSpec(0.5), 12)
	spec.Shards = 3
	spec.Placement = "modulo"
	r := newRunner(p, MatrixOptions{SimWorkers: 2})
	if err := r.run(spec); err != nil {
		t.Fatal(err)
	}
	perf := r.perf()
	if perf == nil {
		t.Fatal("no perf collected")
	}
	if perf.Workers != 2 {
		t.Fatalf("perf workers = %d, want 2", perf.Workers)
	}
	if len(perf.PartEvents) != 3 {
		t.Fatalf("perf has %d partition event sums, want 3", len(perf.PartEvents))
	}
	var sum uint64
	for _, n := range perf.PartEvents {
		if n == 0 {
			t.Fatalf("a partition dispatched no events: %v", perf.PartEvents)
		}
		sum += n
	}
	if sum != perf.Events {
		t.Fatalf("per-partition events sum %d != total %d", sum, perf.Events)
	}
	if len(perf.PartEventsPerSec) != len(perf.PartEvents) {
		t.Fatalf("rates len %d != events len %d", len(perf.PartEventsPerSec), len(perf.PartEvents))
	}
}
