package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

const (
	// nominalSeconds is the run length the workloads' Reps are sized
	// for (BENCHMARK.json's run_seconds).
	nominalSeconds = 12
	// The correctness pass simulates 1.5 ms with a 0.5 ms warmup: short,
	// because recording and replaying the history is slow, and the
	// oracle replays every commit whether or not it was measured.
	checkVirtualMS = 1.5
	checkWarmupMS  = 0.5
	// smokeVirtualMS is -smoke's: the warmup plus 2 ms measured.
	smokeVirtualMS = 4
)

// subSeed derives the seed rep simulates from the run's seed, so one
// run averages the simulated clock over several independent schedules
// (contended workloads move by ±10 % from seed to seed) and is still a
// pure function of -seed.
func subSeed(seed int64, rep int) int64 { return seed*64 + int64(rep) }

// runner spawns rep children and keeps the benchmark's books: what was
// attempted (runs executed plus transactions the oracle replayed) and
// what failed (errored runs, oracle violations, fingerprint mismatches).
type runner struct {
	exe   string
	tmp   string // scratch directory for CPU profiles
	seed  int64
	spans *spanLog
	log   io.Writer

	attempted int
	failures  []string
}

func (r *runner) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	fmt.Fprintln(r.log, "FAIL:", msg)
}

// child runs spec in a fresh process of this binary — heap growth and
// page-fault state never leak between reps — and waits for it.
func (r *runner) child(spec repSpec) (*repResult, error) {
	r.attempted++
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(r.exe, "-child", string(arg))
	cmd.Stderr = r.log
	end := r.spans.begin("rep")
	defer end()
	t0 := time.Now()
	out, err := cmd.Output()
	wall := time.Since(t0)
	if err != nil {
		r.fail("%s: run errored: %v", spec.Workload, err)
		return nil, err
	}
	var res repResult
	if err := json.Unmarshal(out, &res); err != nil {
		r.fail("%s: unreadable rep result: %v", spec.Workload, err)
		return nil, err
	}
	ps := cmd.ProcessState
	res.CPUS = (ps.UserTime() + ps.SystemTime()).Seconds()
	r.repSpans(&res, wall)
	return &res, nil
}

// repSpans lays the phases the child timed itself out under the open
// rep span: build (process start, config, result encoding: whatever
// the child did not time), setup, loop, then each recorder's snapshot
// and export.
func (r *runner) repSpans(res *repResult, wall time.Duration) {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	ms := func(m float64) time.Duration { return time.Duration(m * float64(time.Millisecond)) }
	loop := sec(res.eventLoopS())
	at := wall - sec(res.SetupS) - sec(res.LoopS)
	r.spans.add("build", 0, at)
	r.spans.add("setup", at, sec(res.SetupS))
	at += sec(res.SetupS)
	r.spans.add("loop", at, loop)
	at += loop
	for _, name := range observerNames {
		c, ok := res.Observers[name]
		if !ok {
			continue
		}
		r.spans.add("snapshot."+name, at, ms(c.SnapshotMS))
		at += ms(c.SnapshotMS)
		r.spans.add("export."+name, at, ms(c.ExportMS))
		at += ms(c.ExportMS)
	}
}

// check is the correctness pass: one short run whose committed history
// the serializability oracle replays, and a second run that must land
// on the same simulated result — unobserved for the observed workload,
// single-threaded for the sharded one, a plain repeat otherwise.
func (r *runner) check(def *workloadDef) {
	defer r.spans.begin("check")()
	base := repSpec{Workload: def.Name, Seed: subSeed(r.seed, 0), VirtualMS: checkVirtualMS, WarmupMS: checkWarmupMS, Check: true}
	twin, what := base, "a second run without the history recorder"
	twin.Check = false
	switch {
	case def.Observed:
		twin.Observers, what = []string{}, "the same run with no recorder attached"
	case def.config().Shards > 1:
		twin.Workers, what = 1, "the same run at Workers=1"
	}
	a, err := r.child(base)
	if err != nil {
		return
	}
	r.attempted += a.HistoryTxns
	if a.HistoryErr != "" {
		r.fail("%s: committed history is not serializable: %s", def.Name, a.HistoryErr)
	}
	b, err := r.child(twin)
	if err != nil {
		return
	}
	if a.Fingerprint != b.Fingerprint {
		r.fail("%s: sim_fingerprint %s differs from %s (%s)", def.Name, a.Fingerprint, b.Fingerprint, what)
	}
}

// measure runs the workload's measured reps — every recorder the
// workload does not itself attach is off, no profiler runs — and
// returns one result per rep that completed.
func (r *runner) measure(def *workloadDef, reps int, virtualMS float64) []*repResult {
	var out []*repResult
	for i := 0; i < reps; i++ {
		res, err := r.child(repSpec{Workload: def.Name, Seed: subSeed(r.seed, i), VirtualMS: virtualMS})
		if err != nil {
			continue
		}
		if res.Committed == 0 {
			r.fail("%s: rep %d committed nothing", def.Name, i)
			continue
		}
		out = append(out, res)
	}
	return out
}

// sameSeedBound is how far two runs of the same code on one seed may
// differ on an exact metric: the simulated clock repeats to the last
// digit (the fingerprint says so), allocation counts to four.
const sameSeedBound = 0.01

// compareRepeat holds a second set of measured runs of the same code
// and seed against the first: the simulated result must be the same,
// exact metrics must agree within sameSeedBound, and no host-clock
// metric may be worse than its bound allows.
func (r *runner) compareRepeat(first, second workloadReport) []repeatRow {
	if len(first.EndToEnd) == 0 || len(second.EndToEnd) == 0 {
		return nil // a rep failed; that is on the books already
	}
	if first.SimFingerprint != second.SimFingerprint {
		r.fail("%s: sim_fingerprint %s then %s on the same seed", first.Name, first.SimFingerprint, second.SimFingerprint)
	}
	rows := make([]repeatRow, len(first.EndToEnd))
	for i, m := range first.EndToEnd {
		row := repeatRow{
			Workload: first.Name, Metric: m.Name, Bound: m.Bound,
			First: m.Value, Second: second.EndToEnd[i].Value,
		}
		if endToEnd[i].exact {
			row.Bound = sameSeedBound
		}
		row.WorseBy = worseBy(m.Better, row.First, row.Second)
		row.Pass = row.WorseBy <= row.Bound
		if !row.Pass {
			r.fail("%s: %s repeated %.2f%% worse, bound %g%%", row.Workload, row.Metric, 100*row.WorseBy, 100*row.Bound)
		}
		rows[i] = row
	}
	return rows
}

// combinedFingerprint folds the reps' fingerprints, in rep order, into
// the one string a simulator-only change must leave unchanged.
func combinedFingerprint(reps []*repResult) string {
	h := fnv.New64a()
	for _, r := range reps {
		io.WriteString(h, r.Fingerprint)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// traced runs the workload once more with a CPU profile over the event
// loop and the flight recorder attached, and returns that rep plus the
// workload's per-layer metrics: the exact counters, the flight budget
// shares and the profile's <layer>.cpu_share_pct.
func (r *runner) traced(def *workloadDef) (*repResult, map[string]float64, error) {
	spec := repSpec{
		Workload:   def.Name,
		Seed:       subSeed(r.seed, 0),
		VirtualMS:  def.TracedMS,
		Observers:  []string{"flight"},
		CPUProfile: filepath.Join(r.tmp, def.Name+".cpu.prof"),
	}
	if def.Observed {
		spec.Observers = observerNames
	}
	defer os.Remove(spec.CPUProfile)
	res, err := r.child(spec)
	if err != nil {
		return nil, nil, err
	}
	end := r.spans.begin("pprof")
	samples, err := pprofTraces(spec.CPUProfile)
	end()
	if err != nil {
		return nil, nil, err
	}
	out, err := cpuShares(samples, cpuLayers)
	if err != nil {
		return nil, nil, err
	}
	for _, m := range countMetrics {
		out[m.Name] = m.of(res)
	}
	return res, out, nil
}

// sideRuns measures what no single workload shows: each recorder alone
// against none on smallbank-hot, Motor on tpcc-ford's configuration,
// and sharded-w2 at one worker against the default. Only host seconds
// of the event loop matter here, so the runs are short (the overhead
// runs are the issue's 20 ms) and the speedup pair cuts the warmup. The
// overheads compare event loops only: a snapshot and export cost the
// same after 20 ms as after 60 (the rings are bounded), so against a
// short loop they would say nothing about recording; snapshot_ms and
// export_mb report them instead.
func (r *runner) sideRuns(out map[string]float64) error {
	defer r.spans.begin("side-runs")()
	run := func(spec repSpec) (*repResult, error) {
		spec.Seed = subSeed(r.seed, 0)
		return r.child(spec)
	}
	overhead := func(base, with *repResult) float64 { return 100 * (with.eventLoopS()/base.eventLoopS() - 1) }

	hot := repSpec{Workload: "smallbank-hot", VirtualMS: 20, Observers: []string{}}
	none, err := run(hot)
	if err != nil {
		return err
	}
	for _, name := range observerNames {
		hot.Observers = []string{name}
		one, err := run(hot)
		if err != nil {
			return err
		}
		out[name+".overhead_pct"] = overhead(none, one)
		out[name+".snapshot_ms"] = one.Observers[name].SnapshotMS
		out[name+".export_mb"] = one.Observers[name].ExportMB
	}
	hot.Observers = observerNames
	all, err := run(hot)
	if err != nil {
		return err
	}
	out["bench.observed_overhead_pct"] = overhead(none, all)

	motor, err := run(repSpec{Workload: "tpcc-ford", System: "motor", VirtualMS: 3})
	if err != nil {
		return err
	}
	out["motor.txn_per_host_s"] = float64(motor.Committed) / motor.LoopS

	sharded := repSpec{Workload: "sharded-w2", VirtualMS: 3, WarmupMS: 0.5}
	w2, err := run(sharded)
	if err != nil {
		return err
	}
	sharded.Workers = 1
	w1, err := run(sharded)
	if err != nil {
		return err
	}
	out["sim.world.speedup_w2"] = w1.LoopS / w2.LoopS
	return nil
}
