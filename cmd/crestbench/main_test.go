package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"crest"
)

// dispatch runs the CLI against buffers and returns (code, stdout,
// stderr).
func dispatch(args ...string) (int, string, string) {
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestNoModeShowsUsage(t *testing.T) {
	code, _, stderr := dispatch()
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, "Usage of crestbench") {
		t.Fatalf("stderr lacks usage:\n%s", stderr)
	}
}

func TestBadFlagFails(t *testing.T) {
	code, _, _ := dispatch("-nonsense")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestRunValidatesSystemUpFront(t *testing.T) {
	code, _, stderr := dispatch("-run", "-system", "oracle")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown system "oracle"`) {
		t.Fatalf("stderr lacks diagnosis:\n%s", stderr)
	}
	if !strings.Contains(stderr, "crest, crest-cell, crest-base, ford, motor") {
		t.Fatalf("stderr lacks the valid set:\n%s", stderr)
	}
	if !strings.Contains(stderr, "usage:") {
		t.Fatalf("stderr lacks usage:\n%s", stderr)
	}
}

func TestRunValidatesWorkloadUpFront(t *testing.T) {
	code, _, stderr := dispatch("-run", "-workload", "tcp-c")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown workload "tcp-c"`) {
		t.Fatalf("stderr lacks diagnosis:\n%s", stderr)
	}
	if !strings.Contains(stderr, "tpcc, smallbank, ycsb") {
		t.Fatalf("stderr lacks the valid set:\n%s", stderr)
	}
}

func TestTopologyFlagsValidatedUpFront(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero shards", []string{"-run", "-shards", "0"},
			"shards must be in 1..64, got 0"},
		{"negative shards", []string{"-run", "-shards", "-3"},
			"shards must be in 1..64, got -3"},
		{"too many shards", []string{"-run", "-shards", "65"},
			"shards must be in 1..64, got 65"},
		{"unknown placement", []string{"-run", "-placement", "roundrobin"},
			`unknown placement "roundrobin"`},
		{"exp rejects placement", []string{"-exp", "exp1", "-placement", "modulo"},
			"-placement only applies to -run"},
		{"exp rejects topology", []string{"-exp", "exp1", "-shards", "2"},
			"-shards only applies to -run"},
		{"zero workers", []string{"-run", "-workers", "0"},
			"-workers must be >= 1 (got 0)"},
		{"negative workers", []string{"-run", "-workers", "-4"},
			"-workers must be >= 1 (got -4)"},
		{"zero workers under exp", []string{"-exp", "exp1", "-workers", "0"},
			"-workers must be >= 1 (got 0)"},
		{"negative jobs", []string{"-exp", "table2", "-quick", "-j", "-3"},
			"-j must be >= 0 (got -3)"},
		{"minus one jobs", []string{"-exp", "table2", "-j", "-1"},
			"-j must be >= 0 (got -1)"},
		{"exp rejects big", []string{"-exp", "exp1", "-big"},
			"-big only applies to -run"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := dispatch(tc.args...)
			if code != 2 {
				t.Fatalf("exit code %d, want 2\n%s", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Fatalf("stderr lacks %q:\n%s", tc.want, stderr)
			}
			if !strings.Contains(stderr, "usage:") {
				t.Fatalf("stderr lacks usage:\n%s", stderr)
			}
		})
	}
	// The unknown-placement diagnosis lists the valid policies.
	_, _, stderr := dispatch("-run", "-placement", "nope")
	if !strings.Contains(stderr, "hash, hotspot, modulo, range") {
		t.Fatalf("stderr lacks the valid set:\n%s", stderr)
	}
}

// A -json export reads back as a -baseline: the same experiment
// compared against its own records shows no regression, and a baseline
// of another schema is an error that names the file.
func TestJSONExportIsABaseline(t *testing.T) {
	dir := t.TempDir()
	records := filepath.Join(dir, "table2.json")
	if code, _, stderr := dispatch("-exp", "table2", "-quick", "-json", records); code != 0 {
		t.Fatalf("-json exited %d:\n%s", code, stderr)
	}
	code, stdout, stderr := dispatch("-exp", "table2", "-quick", "-baseline", records)
	if code != 0 {
		t.Fatalf("-baseline exited %d:\n%s", code, stderr)
	}
	for _, want := range []string{"KOPS vs " + records, "no KOPS regression across 3 shared runs"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("stdout lacks %q:\n%s", want, stdout)
		}
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"bogus/v0"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = dispatch("-exp", "table2", "-quick", "-baseline", bad)
	if code != 1 || !strings.Contains(stderr, bad) || !strings.Contains(stderr, `schema "bogus/v0"`) {
		t.Fatalf("bad baseline: exit %d, want 1 with the file and schema named:\n%s", code, stderr)
	}
}

// The byte-stability contract at the CLI seam: explicitly routing a
// run through the sharded topology at its defaults (-shards 1
// -placement hash) must produce byte-identical stdout to a run that
// never mentions topology at all.
func TestShardsOneHashMatchesDefaultRun(t *testing.T) {
	args := []string{"-run", "-quick", "-system", "crest", "-workload", "ycsb",
		"-coords", "12", "-duration", "2ms", "-warmup", "500us"}
	code, def, stderr := dispatch(args...)
	if code != 0 {
		t.Fatalf("default run failed (%d):\n%s", code, stderr)
	}
	code, sharded, stderr := dispatch(append(args, "-shards", "1", "-placement", "hash")...)
	if code != 0 {
		t.Fatalf("sharded run failed (%d):\n%s", code, stderr)
	}
	if def != sharded {
		t.Fatalf("-shards 1 -placement hash diverged from the default run:\n--- default\n%s--- sharded\n%s", def, sharded)
	}
}

// -workers is invocation-level at the CLI seam: a single-group run
// never consults it (-workers 8 is bit-for-bit the sequential
// scheduler's output), and a sharded run produces identical stdout at
// every worker count.
func TestWorkersByteIdenticalAtCLI(t *testing.T) {
	single := []string{"-run", "-quick", "-system", "crest", "-workload", "ycsb",
		"-coords", "12", "-duration", "2ms", "-warmup", "500us"}
	code, def, stderr := dispatch(single...)
	if code != 0 {
		t.Fatalf("default run failed (%d):\n%s", code, stderr)
	}
	code, w8, stderr := dispatch(append(single, "-workers", "8")...)
	if code != 0 {
		t.Fatalf("-workers 8 run failed (%d):\n%s", code, stderr)
	}
	if def != w8 {
		t.Fatalf("-workers 8 diverged from the sequential run on one shard group:\n--- default\n%s--- workers 8\n%s", def, w8)
	}

	sharded := []string{"-run", "-quick", "-system", "crest", "-workload", "smallbank",
		"-coords", "24", "-shards", "3", "-placement", "modulo",
		"-duration", "2ms", "-warmup", "500us"}
	var outs [3]string
	for i, w := range []string{"1", "2", "8"} {
		code, out, stderr := dispatch(append(sharded, "-workers", w)...)
		if code != 0 {
			t.Fatalf("-workers %s run failed (%d):\n%s", w, code, stderr)
		}
		outs[i] = out
	}
	if outs[0] != outs[1] || outs[0] != outs[2] {
		t.Fatalf("sharded stdout differs across -workers 1/2/8:\n--- 1\n%s--- 2\n%s--- 8\n%s",
			outs[0], outs[1], outs[2])
	}
}

// The -big preset must parse and run at a smoke scale: explicit
// -duration/-coords flags scale it down without leaving the
// million-transaction topology (4 shard groups, 8 compute nodes).
func TestBigProfileSmoke(t *testing.T) {
	code, out, stderr := dispatch("-run", "-big", "-quick",
		"-coords", "64", "-duration", "2ms", "-warmup", "500us")
	if code != 0 {
		t.Fatalf("-big smoke failed (%d):\n%s", code, stderr)
	}
	if !strings.Contains(out, "crest/smallbank @64 coordinators") {
		t.Fatalf("-big smoke output unexpected:\n%s", out)
	}
}

// runKeys are the RunSpec key table's flags.
func runKeys() []string {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	crest.DefaultRun().Flags(fs)
	var keys []string
	fs.VisitAll(func(f *flag.Flag) { keys = append(keys, f.Name) })
	return keys
}

// The three modes are exclusive, and each rejects the flags of another
// rather than silently ignoring them: -exp and -list take their run
// descriptions from the experiment definitions, so every run key but
// -exp's -quick and every -run-only output flag is rejected there, and
// the matrix flags are rejected under -run and -list.
func TestExpAndListRejectRunFlags(t *testing.T) {
	runFlags := [][]string{{"-spec", "x.spec"}, {"-big"}, {"-runtime-stats", "rt.json"},
		{"-trace", "x.json"}, {"-metrics", "m.csv"}, {"-metrics-window", "50us"}, {"-why", "w.json"}, {"-flight", "f.json"}}
	for _, key := range runKeys() {
		switch key {
		case "quick":
		case "duration", "warmup":
			runFlags = append(runFlags, []string{"-" + key, "1ms"})
		default:
			runFlags = append(runFlags, []string{"-" + key, "1"})
		}
	}
	expFlags := [][]string{{"-j", "2"}, {"-json", "x.json"}, {"-baseline", "b.json"}}
	run := []string{"-run", "-quick", "-workload", "smallbank", "-coords", "12", "-duration", "2ms", "-warmup", "200us"}
	for _, tc := range []struct {
		mode  []string
		flags [][]string
		owner string
	}{
		{[]string{"-exp", "fig2"}, runFlags, "-run"},
		{[]string{"-list"}, append(runFlags, []string{"-quick"}), "-run"},
		{run, expFlags, "-exp"},
		{[]string{"-list"}, expFlags, "-exp"},
	} {
		for _, fl := range tc.flags {
			code, stdout, stderr := dispatch(append(tc.mode, fl...)...)
			if code != 2 || stdout != "" {
				t.Fatalf("%v %v: exit code %d, stdout %q", tc.mode, fl, code, stdout)
			}
			if want := fl[0] + " only applies to " + tc.owner; !strings.Contains(stderr, want) {
				t.Fatalf("%v %v: stderr lacks %q:\n%s", tc.mode, fl, want, stderr)
			}
		}
	}
	// The first stray flag is named even when several are passed.
	_, _, stderr := dispatch("-exp", "fig2", "-system", "ford", "-coords", "7", "-trace", "x.json")
	if !strings.Contains(stderr, "-coords only applies to -run") {
		t.Fatalf("stderr lacks diagnosis:\n%s", stderr)
	}
	// Two modes at once are one usage error, whatever else is passed.
	for _, args := range [][]string{
		{"-list", "-run", "-coords", "3"}, {"-list", "-exp", "fig2"}, {"-exp", "fig2", "-run"},
		append([]string{"-list"}, run...),
	} {
		code, stdout, stderr := dispatch(args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "-list, -exp and -run are exclusive") {
			t.Fatalf("%v: exit code %d, stdout %q\n%s", args, code, stdout, stderr)
		}
	}
}

// Hostile run values are usage errors (exit 2 + usage), not panics,
// silent fallbacks or all-zero tables; internal/bench's
// TestValidateRejectsHostileValues holds the full list.
func TestRunRejectsHostileValues(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "ycsb", "-n", "-1"}, {"-warehouses", "-2"}, {"-warehouses", "0"},
		{"-coords", "0"}, {"-coords", "-3"}, {"-duration", "1ms"}, {"-duration", "0"},
		{"-workload", "ycsb", "-writes", "2"}, {"-theta", "-0.5"},
		{"-big", "-duration", "2ms"}, // the preset's 2ms warmup
		{"-duration", "3ms", "-warmup", "-2ms"}, {"-warmup", "0s"}, {"-seed", "0"},
		{"-workers", "0"}, {"-shards", "0"}, {"-system", "oracle"},
	} {
		code, stdout, stderr := dispatch(append([]string{"-run", "-quick"}, args...)...)
		if code != 2 || stdout != "" {
			t.Fatalf("%v: exit code %d, stdout %q\n%s", args, code, stdout, stderr)
		}
		if !strings.Contains(stderr, "usage:") {
			t.Fatalf("%v: stderr lacks usage:\n%s", args, stderr)
		}
	}
}

// An explicitly passed -theta 0 means uniform: the run differs from the
// θ = 0.99 default and is the run the matrix describes with
// YCSBSpec(0, …) at the same shape.
func TestThetaZeroIsUniform(t *testing.T) {
	args := []string{"-run", "-quick", "-workload", "ycsb", "-coords", "24", "-duration", "2ms", "-warmup", "500us"}
	_, skewed, _ := dispatch(args...)
	code, uniform, stderr := dispatch(append(args, "-theta", "0")...)
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr)
	}
	if uniform == skewed {
		t.Fatalf("-theta 0 ran the θ = 0.99 default:\n%s", uniform)
	}
	spec := crest.DefaultRun()
	spec.Workload = crest.WorkloadSpec{Kind: crest.WorkloadYCSB, Theta: 0, WriteRatio: 0.5, RecordsPerTx: 4}
	spec.Coordinators, spec.Duration, spec.Warmup, spec.Profile = 24, 2*time.Millisecond, 500*time.Microsecond, "quick"
	res, err := crest.RunBenchmark(crest.BenchmarkConfig{RunSpec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(uniform, res.String()+"\n") {
		t.Fatalf("-theta 0 is not the uniform spec's run:\n cli: %s lib: %s", uniform, res)
	}
}

// The -big preset read back through its own flag defaults is itself.
func TestBigPresetRoundTrips(t *testing.T) {
	preset := bigRun()
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	preset.Flags(fs)
	got := preset
	fs.VisitAll(func(f *flag.Flag) {
		if err := got.Set(f.Name, f.DefValue); err != nil {
			t.Fatal(err)
		}
	})
	if got != preset {
		t.Fatalf("round trip changed the preset:\n got %+v\nwant %+v", got, preset)
	}
}

// -coords is the total coordinator count: a total that does not divide
// the three compute nodes is not rounded up to the next multiple. The
// span export (-trace .spans) names each coordinator that ran.
func TestCoordsRunsExactTotal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.spans")
	code, _, stderr := dispatch("-run", "-quick", "-workload", "smallbank", "-coords", "10",
		"-duration", "2ms", "-warmup", "200us", "-trace", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	spans, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	coords := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^span \d+ (coord \d+) `).FindAllStringSubmatch(string(spans), -1) {
		coords[m[1]] = true
	}
	if len(coords) != 10 {
		t.Fatalf("-coords 10 ran %d coordinators", len(coords))
	}
}

func TestRunMissingSpecFileFails(t *testing.T) {
	code, _, stderr := dispatch("-run", "-spec", "no-such-file.spec")
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(stderr, "no-such-file.spec") {
		t.Fatalf("stderr lacks the path:\n%s", stderr)
	}
}

func TestListPrintsScenario(t *testing.T) {
	code, stdout, _ := dispatch("-list")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(stdout, "scenario") || !strings.Contains(stdout, "exp1") {
		t.Fatalf("experiment list incomplete:\n%s", stdout)
	}
}

// TestRunSpecEndToEnd drives a tiny scenario through the full CLI
// path and checks the per-phase lines land on stdout.
func TestRunSpecEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "tiny.spec")
	spec := `workload=ycsb
recordcount=2000
theta=0.9
phase.1.type=constant
phase.1.duration=1ms
phase.1.load=1.0
phase.2.type=constant
phase.2.duration=1ms
phase.2.load=0.5
phase.2.hotspot=0.5
`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := dispatch("-run", "-spec", path, "-quick", "-coords", "24", "-warmup", "200us")
	if code != 0 {
		t.Fatalf("exit code %d\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "scenario:tiny") {
		t.Fatalf("stdout lacks the scenario name:\n%s", stdout)
	}
	if !strings.Contains(stdout, "phase 1:") || !strings.Contains(stdout, "phase 2:") {
		t.Fatalf("stdout lacks per-phase lines:\n%s", stdout)
	}
	// Same invocation, byte-identical stdout.
	code2, stdout2, _ := dispatch("-run", "-spec", path, "-quick", "-coords", "24", "-warmup", "200us")
	if code2 != 0 || stdout2 != stdout {
		t.Fatalf("spec-driven run is not reproducible:\n--- first\n%s--- second\n%s", stdout, stdout2)
	}
}
