package crest

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

func partitionedBenchCfg(workers int) BenchmarkConfig {
	return BenchmarkConfig{
		RunSpec: RunSpec{
			System:       SystemCREST,
			Workload:     WorkloadSpec{Kind: WorkloadSmallBank, Theta: 0.5},
			Shards:       3,
			Placement:    "modulo",
			MemNodes:     2,
			Coordinators: 12,
			Duration:     2 * time.Millisecond,
			Warmup:       500 * time.Microsecond,
			Profile:      "quick",
		},
		Workers: workers,
	}
}

// A partitioned run surfaces the window executor's introspection; a
// classic single-group run does not.
func TestRuntimeStatsPopulatedForPartitionedRuns(t *testing.T) {
	res, err := RunBenchmark(partitionedBenchCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	rt := res.Runtime
	if rt == nil {
		t.Fatal("partitioned run returned no RuntimeStats")
	}
	if rt.Schema != RuntimeSchemaVersion {
		t.Fatalf("schema %q, want %q", rt.Schema, RuntimeSchemaVersion)
	}
	if rt.Parts != 3 || rt.Workers != 2 || rt.Windows == 0 {
		t.Fatalf("implausible stats: parts=%d workers=%d windows=%d", rt.Parts, rt.Workers, rt.Windows)
	}
	if len(rt.Partitions) != 3 {
		t.Fatalf("%d partition entries, want 3", len(rt.Partitions))
	}
	var events uint64
	for _, p := range rt.Partitions {
		events += p.Events
	}
	if events != res.Events {
		t.Fatalf("partition events sum %d != run events %d", events, res.Events)
	}
	if len(rt.WindowLog) == 0 {
		t.Fatal("no window log recorded")
	}

	cfg := partitionedBenchCfg(1)
	cfg.Shards = 1
	cfg.Placement = ""
	single, err := RunBenchmark(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if single.Runtime != nil {
		t.Fatal("single-group run returned RuntimeStats")
	}
}

// The runtime-stats document round-trips through its writer and reader,
// and foreign schema versions are rejected.
func TestRuntimeStatsJSONRoundTrip(t *testing.T) {
	res, err := RunBenchmark(partitionedBenchCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeRuntimeStats(&buf, res.Runtime); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRuntimeStats(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res.Runtime) {
		t.Fatalf("round-trip changed the document:\n%+v\nvs\n%+v", got, res.Runtime)
	}
	bad := bytes.Replace(buf.Bytes(), []byte(RuntimeSchemaVersion), []byte("crest-runtime/v999"), 1)
	if _, err := ReadRuntimeStats(bytes.NewReader(bad)); err == nil {
		t.Fatal("foreign schema version accepted")
	}
}

// The window timeline renders only schedule-derived fields, so two runs
// at different worker counts produce byte-identical timelines even
// though their wall-clock fields differ.
func TestWindowTimelineByteIdenticalAcrossWorkers(t *testing.T) {
	render := func(workers int) []byte {
		res, err := RunBenchmark(partitionedBenchCfg(workers))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteWindowTimeline(&buf, res.Runtime); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one, eight := render(1), render(8)
	if !bytes.Equal(one, eight) {
		t.Fatalf("timeline differs between workers=1 and workers=8:\n%s\nvs\n%s", one, eight)
	}
	out := string(one)
	for _, want := range []string{"windows ", "partition 0:", "start_ns"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline lacks %q:\n%s", want, out)
		}
	}
}
