package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crest"
	"crest/internal/causality"
	"crest/internal/flight"
	"crest/internal/sim"
	"crest/internal/trace"
)

// dispatch runs the CLI entry point against in-memory streams.
func dispatch(args ...string) (code int, stdout, stderr string) {
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestUnknownSubcommandPrintsUsage(t *testing.T) {
	code, stdout, stderr := dispatch("frobnicate")
	if code == 0 {
		t.Fatalf("unknown subcommand exited 0")
	}
	if stdout != "" {
		t.Fatalf("unknown subcommand wrote to stdout: %q", stdout)
	}
	if !strings.Contains(stderr, "unknown subcommand") || !strings.Contains(stderr, "usage:") {
		t.Fatalf("stderr missing diagnosis/usage:\n%s", stderr)
	}
}

func TestWhyRequiresTxnID(t *testing.T) {
	code, _, stderr := dispatch("why", "-in", whyFixture(t))
	if code == 0 {
		t.Fatal("why without txnid exited 0")
	}
	if !strings.Contains(stderr, "usage:") {
		t.Fatalf("stderr missing usage:\n%s", stderr)
	}

	code, _, stderr = dispatch("why", "-in", whyFixture(t), "notanumber")
	if code == 0 {
		t.Fatal("why with a non-numeric txnid exited 0")
	}
	if !strings.Contains(stderr, "bad transaction id") {
		t.Fatalf("stderr missing diagnosis:\n%s", stderr)
	}
}

func TestWhyUnreadableInputPrintsUsage(t *testing.T) {
	code, _, stderr := dispatch("why", "-in", filepath.Join(t.TempDir(), "absent.json"), "5")
	if code == 0 {
		t.Fatal("unreadable -in exited 0")
	}
	if !strings.Contains(stderr, "usage:") {
		t.Fatalf("stderr missing usage:\n%s", stderr)
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = dispatch("why", "-in", bad, "5")
	if code == 0 {
		t.Fatal("unparsable -in exited 0")
	}
	if !strings.Contains(stderr, "usage:") {
		t.Fatalf("stderr missing usage:\n%s", stderr)
	}
}

func TestGraphRejectsStrayArgs(t *testing.T) {
	code, _, stderr := dispatch("graph", "-in", whyFixture(t), "stray")
	if code == 0 {
		t.Fatal("stray positional arg exited 0")
	}
	if !strings.Contains(stderr, "unexpected argument") {
		t.Fatalf("stderr missing diagnosis:\n%s", stderr)
	}
}

// export writes one export into a fresh temporary file and returns its
// path.
func export(t *testing.T, name string, write func(io.Writer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// whyFixture writes a crest-why JSON export with a three-transaction
// blame chain: T412 failed validation against T398, which waited on
// T371.
func whyFixture(t *testing.T) string {
	t.Helper()
	snap := &causality.Snapshot{
		Txns: []causality.TxnInfo{
			{ID: 371, Label: "Audit", State: causality.StateCommitted, End: 80},
			{ID: 398, Label: "Deposit", State: causality.StateCommitted, End: 90},
			{ID: 412, Label: "Pay", State: causality.StateAborted, Reason: "validation",
				Attempt: 1, Aborts: 1, End: 100,
				Cause: &causality.CauseInfo{Seq: 2, Kind: causality.KindValidation,
					Table: 3, Key: 17, Mask: 1 << 2, Holder: 398}},
		},
		Edges: []causality.Edge{
			{Seq: 1, At: 40, Kind: causality.KindLocalWait, Waiter: 398, Holder: 371,
				Table: 3, Key: 17, Wait: 14 * sim.Microsecond},
			{Seq: 2, At: 95, Kind: causality.KindValidation, Waiter: 412, Holder: 398,
				Table: 3, Key: 17, Mask: 1 << 2},
		},
	}
	return export(t, "why.json", func(w io.Writer) error { return causality.WriteJSON(w, snap) })
}

func TestWhyPrintsMultiHopBlameChain(t *testing.T) {
	code, stdout, stderr := dispatch("why", "-in", whyFixture(t), "412")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{
		"T412 [Pay] aborted",
		"failed validation on (table 3, key 17, cell {2}); updated by T398 [Deposit]",
		"T398 [Deposit] waited 14.000µs on (table 3, key 17, record) held by T371 [Audit]",
		"T371 [Audit] committed",
	} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("blame output missing %q:\n%s", want, stdout)
		}
	}

	// An id the export does not contain is an error, not silence.
	code, _, stderr = dispatch("why", "-in", whyFixture(t), "999")
	if code == 0 {
		t.Fatal("unknown txn exited 0")
	}
	if !strings.Contains(stderr, "unknown txn") {
		t.Fatalf("stderr missing diagnosis:\n%s", stderr)
	}
}

// flightFixture writes a crest-flight JSON export with two committed
// transactions; the slower one (T9, dominated by backoff) carries
// per-attempt exemplar detail.
func flightFixture(t *testing.T) string {
	t.Helper()
	us := func(n int64) sim.Duration { return sim.Duration(n) * sim.Microsecond }
	fast := flight.TxnBudget{
		ID: 4, Label: "Balance", Coord: 1, Shard: 0,
		Begin: sim.Time(us(10)), End: sim.Time(us(14)), Attempts: 1, Committed: true,
	}
	fast.Budget[flight.CompExec] = us(1)
	fast.Budget[flight.CompWireRead] = us(3)
	slow := flight.TxnBudget{
		ID: 9, Label: "Pay", Coord: 2, Shard: 0,
		Begin: sim.Time(us(20)), End: sim.Time(us(60)), Attempts: 2, Committed: true,
		Reason: "lock-conflict", WaitHolder: 4, WaitMax: us(5),
	}
	slow.Budget[flight.CompExec] = us(2)
	slow.Budget[flight.CompWireRead] = us(6)
	slow.Budget[flight.CompWait] = us(5)
	slow.Budget[flight.CompBackoff] = us(25)
	slow.Budget[flight.CompLock] = us(2)
	ex := flight.Exemplar{TxnBudget: slow, Bucket: flight.CompBackoff}
	a1 := flight.AttemptInfo{Start: sim.Time(us(20)), End: sim.Time(us(30)), Outcome: "lock-conflict",
		Wait: us(5), WaitMax: us(5), WaitHolder: 4}
	a1.Phases[trace.PhaseExec] = us(1)
	a1.Phases[trace.PhaseLock] = us(9)
	a1.WaitPhase[trace.PhaseLock] = us(5)
	a1.WirePhase[trace.PhaseLock] = us(3)
	a1.Wire[flight.ClassRead] = us(3)
	a2 := flight.AttemptInfo{Start: sim.Time(us(55)), End: sim.Time(us(60)), Outcome: "commit",
		Gap: us(25)}
	a2.Phases[trace.PhaseExec] = us(1)
	a2.Phases[trace.PhaseLock] = us(4)
	a2.WirePhase[trace.PhaseLock] = us(3)
	a2.Wire[flight.ClassRead] = us(3)
	ex.Detail = []flight.AttemptInfo{a1, a2}
	snap := &flight.Snapshot{Txns: []flight.TxnBudget{fast, slow}, Exemplars: []flight.Exemplar{ex}}
	return export(t, "flight.json", func(w io.Writer) error { return flight.WriteJSON(w, snap) })
}

func TestTailRendersBudgetReportFromExport(t *testing.T) {
	code, stdout, stderr := dispatch("tail", "-in", flightFixture(t))
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"component", "tail vs median", "T9 [Pay]", "backoff"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("tail output missing %q:\n%s", want, stdout)
		}
	}

	code, _, stderr = dispatch("tail", "-in", flightFixture(t), "stray")
	if code != 2 {
		t.Fatalf("stray positional arg exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "unexpected argument") {
		t.Fatalf("stderr missing diagnosis:\n%s", stderr)
	}
}

func TestCritPathWalksAttemptsFromExport(t *testing.T) {
	code, stdout, stderr := dispatch("critpath", "-in", flightFixture(t), "9")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{
		"T9 [Pay] coord 2, shard 0: committed in 40.0µs over 2 attempt(s)",
		"attempt 1: 10.0µs → lock-conflict",
		"gap: backoff 25.0µs",
		"attempt 2: 5.0µs → commit",
		"critical path:",
	} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("critpath output missing %q:\n%s", want, stdout)
		}
	}

	// A txn in the ring but not captured as an exemplar degrades to the
	// summary decomposition with a note.
	code, stdout, _ = dispatch("critpath", "-in", flightFixture(t), "4")
	if code != 0 {
		t.Fatalf("summary-only txn exited %d", code)
	}
	if !strings.Contains(stdout, "no exemplar detail") {
		t.Fatalf("missing summary-only note:\n%s", stdout)
	}

	// Unknown ids and non-numeric ids are errors, not silence.
	code, _, stderr = dispatch("critpath", "-in", flightFixture(t), "999")
	if code == 0 {
		t.Fatal("unknown txn exited 0")
	}
	if !strings.Contains(stderr, "unknown txn") {
		t.Fatalf("stderr missing diagnosis:\n%s", stderr)
	}
	code, _, stderr = dispatch("critpath", "-in", flightFixture(t), "notanumber")
	if code != 2 {
		t.Fatalf("non-numeric txnid exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "bad transaction id") {
		t.Fatalf("stderr missing diagnosis:\n%s", stderr)
	}
}

func TestGraphRendersDOTFromExport(t *testing.T) {
	code, stdout, stderr := dispatch("graph", "-in", whyFixture(t))
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "digraph crest_why {\n") || !strings.HasSuffix(stdout, "}\n") {
		t.Fatalf("not a DOT document:\n%s", stdout)
	}
	if !strings.Contains(stdout, `"Pay" -> "Deposit"`) {
		t.Fatalf("missing aggregated edge:\n%s", stdout)
	}
}

// Every subcommand rejects what used to be a run flag as an unknown
// flag (a run value is crestbench's to validate, in
// TestRunRejectsHostileValues) with exit 2 + its flags before reading
// anything.
func TestRunFlagsValidatedUpFront(t *testing.T) {
	for _, sub := range subcommands {
		for _, args := range [][]string{
			{"-coords", "0"}, {"-coords", "-3"}, {"-workload", "tpcc", "-warehouses", "0"}, {"-duration", "100us"},
			{"-shards", "0"}, {"-system", "oracle"}, {"-workers", "0"},
		} {
			code, stdout, stderr := dispatch(append(append([]string{sub}, args...), "7")...)
			if code != 2 || stdout != "" {
				t.Fatalf("%s %v: exit %d, stdout %q\n%s", sub, args, code, stdout, stderr)
			}
			if !strings.Contains(stderr, "flag provided but not defined: "+args[0]) || !strings.Contains(stderr, "Usage of cresttrace "+sub) {
				t.Fatalf("%s %v: stderr lacks usage:\n%s", sub, args, stderr)
			}
		}
	}
}

var subcommands = []string{"why", "graph", "windows", "tail", "critpath"}

// cresttrace only reads: every subcommand needs -in, and the bare
// command and the old trace subcommand print usage.
func TestSubcommandsOnlyRead(t *testing.T) {
	for _, sub := range subcommands {
		code, stdout, stderr := dispatch(sub, "7")
		if code != 2 || stdout != "" {
			t.Fatalf("%s without -in: exit %d, stdout %q\n%s", sub, code, stdout, stderr)
		}
		if !strings.Contains(stderr, "-in is required") || !strings.Contains(stderr, "usage: cresttrace") {
			t.Fatalf("%s without -in: stderr lacks diagnosis and usage:\n%s", sub, stderr)
		}
	}
	for _, args := range [][]string{{}, {"-system", "ford", "-format", "spans"}, {"trace", "-format", "spans"}} {
		code, stdout, stderr := dispatch(args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "usage: cresttrace") {
			t.Fatalf("%v: exit %d, stdout %q\n%s", args, code, stdout, stderr)
		}
	}
}

// smallRun is the preset cresttrace's run mode had, which the fresh
// digest rows' exports are runs of: the runs `crestbench -run` spells
// with smallRunFlags.
func smallRun() crest.RunSpec {
	s := crest.DefaultRun()
	s.Workload.Kind, s.Workload.Warehouses = crest.WorkloadSmallBank, 8
	s.Coordinators = 12
	s.Duration, s.Warmup = 2*time.Millisecond, 200*time.Microsecond
	s.Profile = "quick"
	return s
}

var smallRunFlags = "-quick -workload smallbank -warehouses 8 -coords 12 -duration 2ms -warmup 200us"

// The small-run preset is crestbench -run's defaults under
// smallRunFlags, so every fresh export is one crestbench can write.
func TestSmallRunPresetRoundTrips(t *testing.T) {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	crest.DefaultRun().Flags(fs)
	if err := fs.Parse(strings.Fields(smallRunFlags)); err != nil {
		t.Fatal(err)
	}
	got := crest.DefaultRun()
	if _, err := got.SetFlags(fs); err != nil {
		t.Fatal(err)
	}
	if got != smallRun() {
		t.Fatalf("crestbench -run %s is not the preset:\n got %+v\nwant %+v", smallRunFlags, got, smallRun())
	}
}
