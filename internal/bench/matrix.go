// The experiment matrix runner. The paper's evaluation is a matrix of
// (system × workload × coordinators × skew) cells; this file gives
// that matrix a first-class representation. A RunSpec is a canonical
// value that fully determines one deterministic DES run; experiments
// declare the specs they need and a Runner executes the deduplicated
// set — in parallel on a bounded worker pool, each run once, memoized
// in process — then renders tables from the shared result store.
// Because every run is an independent single-scheduler simulation
// keyed by its spec, parallel execution is byte-identical to
// sequential execution.
package bench

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"crest/internal/memnode"
	"crest/internal/placement"
	"crest/internal/rdma"
	"crest/internal/scenario"
	"crest/internal/sim"
	"crest/internal/workload"
)

// SchemaVersion identifies the JSON record layout emitted by
// ResultSet.Encode and accepted by DecodeResultSet. Bump it whenever
// RunRecord changes incompatibly; a stale document is then rejected
// rather than misread.
//
// v2 added RunRecord.Events; v1 records would decode with a zero
// count, which is a misread. v3 added the BenchPerf workers and
// per-partition fields emitted by parallel-capable invocations.
const SchemaVersion = "crest-bench/v3"

// Workload kinds a WorkloadSpec can name.
const (
	WLTPCC      = "tpcc"
	WLSmallBank = "smallbank"
	WLYCSB      = "ycsb"
	WLTwoRecord = "two-record" // Table 2's micro-workload
)

// WorkloadSpec is the declarative form of a workload: a kind plus the
// knobs the paper sweeps. Table cardinalities come from the Profile
// (recorded in RunSpec.Profile), so the same spec scales from quick to
// full runs.
type WorkloadSpec struct {
	Kind string `json:"kind"`
	// Warehouses is the TPC-C contention knob.
	Warehouses int `json:"warehouses,omitempty"`
	// Theta is the Zipfian constant (SmallBank, YCSB).
	Theta float64 `json:"theta,omitempty"`
	// WriteRatio and RecordsPerTx are the YCSB mix knobs.
	WriteRatio   float64 `json:"write_ratio,omitempty"`
	RecordsPerTx int     `json:"records_per_tx,omitempty"`
}

// TPCCSpec declares a TPC-C workload at a warehouse count.
func TPCCSpec(warehouses int) WorkloadSpec {
	return WorkloadSpec{Kind: WLTPCC, Warehouses: warehouses}
}

// SmallBankSpec declares a SmallBank workload at a skew.
func SmallBankSpec(theta float64) WorkloadSpec {
	return WorkloadSpec{Kind: WLSmallBank, Theta: theta}
}

// YCSBSpec declares a YCSB workload.
func YCSBSpec(theta, writeRatio float64, recordsPerTx int) WorkloadSpec {
	return WorkloadSpec{Kind: WLYCSB, Theta: theta, WriteRatio: writeRatio, RecordsPerTx: recordsPerTx}
}

// TwoRecordSpec declares the Table 2 micro-workload (one read-write
// plus one read-only record per transaction).
func TwoRecordSpec() WorkloadSpec { return WorkloadSpec{Kind: WLTwoRecord} }

// key renders only the fields that matter for the kind, so two specs
// that run the same generator always collide.
func (w WorkloadSpec) key() string {
	switch w.Kind {
	case WLTPCC:
		return fmt.Sprintf("tpcc(wh=%d)", w.Warehouses)
	case WLSmallBank:
		return fmt.Sprintf("smallbank(theta=%.4f)", w.Theta)
	case WLYCSB:
		return fmt.Sprintf("ycsb(theta=%.4f,write=%.4f,n=%d)", w.Theta, w.WriteRatio, w.RecordsPerTx)
	default:
		return w.Kind
	}
}

// generator materializes the factory under a profile's table scales.
func (w WorkloadSpec) generator(p Profile) (func() workload.Generator, error) {
	switch w.Kind {
	case WLTPCC:
		return p.TPCC(w.Warehouses), nil
	case WLSmallBank:
		return p.SmallBank(w.Theta), nil
	case WLYCSB:
		return p.YCSB(w.Theta, w.WriteRatio, w.RecordsPerTx), nil
	case WLTwoRecord:
		return func() workload.Generator { return twoRecordGen{} }, nil
	}
	return nil, fmt.Errorf("bench: unknown workload kind %q", w.Kind)
}

// RunSpec is the declarative description of one run — the only one:
// the matrix runner, crest.RunBenchmark and both CLIs all describe a
// run as a RunSpec, and Execute is the one function that resolves it
// to the executable Config and runs it. It canonically identifies the
// run: everything that influences the schedule is in here, so equal keys
// mean equal results and a result may be reused wherever its spec
// reappears.
type RunSpec struct {
	System   SystemKind   `json:"system"`
	Workload WorkloadSpec `json:"workload"`
	// Coordinators is the total across compute nodes; a total that does
	// not divide CompNodes gives the first nodes one extra coordinator.
	Coordinators int `json:"coordinators"`
	// MemNodes is the number of memory nodes per shard group.
	MemNodes  int `json:"mem_nodes"`
	CompNodes int `json:"comp_nodes"`
	Replicas  int `json:"replicas"`
	// Duration is the run's total virtual time, warmup included: the
	// measured window is the Duration − Warmup that follows Warmup.
	Duration time.Duration `json:"duration_ns"`
	Warmup   time.Duration `json:"warmup_ns"`
	Seed     int64         `json:"seed"`
	// Profile names the table-scale profile (quick, full) the run
	// resolves cardinalities from.
	Profile string `json:"profile"`
	// OneTxn selects the Table 2 measurement mode: load, execute
	// exactly one uncontended transaction, report its verbs.
	OneTxn bool `json:"one_txn,omitempty"`
	// Scenario, when set, drives the run from a declarative scenario
	// (workload section + traffic timeline) instead of Workload. Its
	// hash-stable Key() joins the run key, so equal scenarios dedupe
	// across experiments exactly like equal workloads do.
	Scenario *scenario.Spec `json:"scenario,omitempty"`
	// Shards is the number of shard groups of MemNodes memory nodes
	// each (0 and 1 both mean the classic single-group topology), and
	// Placement names the data-placement policy ("" means "hash").
	// Both join the run key only when non-default, so every
	// pre-sharding key and JSON record is unchanged.
	Shards    int    `json:"shards,omitempty"`
	Placement string `json:"placement,omitempty"`
}

// Key is the canonical identity of the run; it is the memoization key,
// and two specs with equal keys are interchangeable.
func (s RunSpec) Key() string {
	key := fmt.Sprintf("%s|%s|c%d|mn%d|cn%d|r%d|d%d|w%d|s%d|p%s|once%t",
		s.System, s.Workload.key(), s.Coordinators, s.MemNodes, s.CompNodes,
		s.Replicas, int64(s.Duration), int64(s.Warmup), s.Seed, s.Profile, s.OneTxn)
	if s.Scenario != nil {
		key += "|scn:" + s.Scenario.Key()
	}
	if s.Shards > 1 || (s.Placement != "" && s.Placement != "hash") {
		shards := s.Shards
		if shards < 1 {
			shards = 1
		}
		pl := s.Placement
		if pl == "" {
			pl = "hash"
		}
		key += fmt.Sprintf("|sh%d|pl%s", shards, pl)
	}
	return key
}

// Spec assembles a run spec at a total coordinator count under the
// paper's testbed shape (two memory nodes, three compute nodes), with
// the profile's duration, warmup, replication and seed.
func (p Profile) Spec(system SystemKind, wl WorkloadSpec, totalCoords int) RunSpec {
	return RunSpec{
		System:       system,
		Workload:     wl,
		Coordinators: totalCoords,
		MemNodes:     2,
		CompNodes:    3,
		Replicas:     p.Replicas,
		Duration:     time.Duration(p.Duration),
		Warmup:       time.Duration(p.Warmup),
		Seed:         p.Seed,
		Profile:      p.Name,
	}
}

// DefaultRun is the evaluation-default run, crestbench -run with no
// other flag: TPC-C at 40 warehouses under full CREST, 240 coordinators
// on the paper's testbed shape, full-scale tables. The zero fields of a
// spec handed to RunSpec.Resolve take these values, and the CLIs' other
// presets are written as deltas on it.
func DefaultRun() RunSpec {
	return RunSpec{
		System:       CREST,
		Workload:     WorkloadSpec{Kind: WLTPCC, Warehouses: 40, Theta: 0.99, WriteRatio: 0.5, RecordsPerTx: 4},
		Coordinators: 240,
		MemNodes:     2,
		CompNodes:    3,
		Duration:     20 * time.Millisecond,
		Warmup:       4 * time.Millisecond,
		Seed:         1,
		Profile:      "full",
		Shards:       1,
		Placement:    "hash",
	}
}

// runKey is one run knob as text: its flag usage string and how it
// reads and assigns its RunSpec field. get returns a string, int, int64,
// float64, bool or time.Duration; the dynamic type picks the flag type.
// knob marks the workload knobs, which take defaults as a group (see
// defaulted).
type runKey struct {
	usage string
	knob  bool
	get   func(*RunSpec) any
	set   func(*RunSpec, string) error
}

// key declares a knob stored directly in one RunSpec field.
func key[T any](usage string, field func(*RunSpec) *T, parse func(string) (T, error)) runKey {
	return runKey{usage: usage,
		get: func(s *RunSpec) any { return *field(s) },
		set: func(s *RunSpec, v string) error {
			x, err := parse(v)
			if err == nil {
				*field(s) = x
			}
			return err
		}}
}

// knob marks k as a workload knob.
func knob(k runKey) runKey {
	k.knob = true
	return k
}

func lower(v string) (string, error)       { return strings.ToLower(v), nil }
func parseFloat(v string) (float64, error) { return strconv.ParseFloat(v, 64) }
func parseInt64(v string) (int64, error)   { return strconv.ParseInt(v, 10, 64) }

// The values the system, workload and quick keys can select.
var (
	systemNames   = []string{string(CREST), string(CRESTCell), string(CRESTBase), string(FORD), string(Motor)}
	workloadNames = []string{WLTPCC, WLSmallBank, WLYCSB}
	profileNames  = map[bool]string{true: "quick", false: "full"}
)

// runKeys is the only place a run knob is declared: the name both CLIs
// give its flag, the usage string, the field (DESIGN.md §12 "Adding a
// run knob").
var runKeys = map[string]runKey{
	"system": key("system: "+strings.Join(systemNames, ", "),
		func(s *RunSpec) *string { return (*string)(&s.System) }, lower),
	"workload": key("workload: "+strings.Join(workloadNames, ", "),
		func(s *RunSpec) *string { return &s.Workload.Kind }, lower),
	"warehouses": knob(key("TPC-C warehouses",
		func(s *RunSpec) *int { return &s.Workload.Warehouses }, strconv.Atoi)),
	"theta": knob(key("Zipfian constant (smallbank/ycsb)",
		func(s *RunSpec) *float64 { return &s.Workload.Theta }, parseFloat)),
	"writes": knob(key("YCSB write ratio",
		func(s *RunSpec) *float64 { return &s.Workload.WriteRatio }, parseFloat)),
	"n": knob(key("YCSB records per transaction",
		func(s *RunSpec) *int { return &s.Workload.RecordsPerTx }, strconv.Atoi)),
	"coords": key("total coordinators (across 3 compute nodes)",
		func(s *RunSpec) *int { return &s.Coordinators }, strconv.Atoi),
	"shards": key("shard groups of independent memory nodes (1 = the classic single-group topology)",
		func(s *RunSpec) *int { return &s.Shards }, strconv.Atoi),
	"placement": key("data placement policy: "+strings.Join(placement.Names(), ", "),
		func(s *RunSpec) *string { return &s.Placement }, lower),
	"duration": key("total virtual time of the run, warmup included",
		func(s *RunSpec) *time.Duration { return &s.Duration }, time.ParseDuration),
	"warmup": key("virtual warmup excluded from measurement",
		func(s *RunSpec) *time.Duration { return &s.Warmup }, time.ParseDuration),
	"seed": key("simulation seed",
		func(s *RunSpec) *int64 { return &s.Seed }, parseInt64),
	// The one knob that is not a field: it names the profile.
	"quick": {usage: "use CI-scale table sizes",
		get: func(s *RunSpec) any { return s.Profile == profileNames[true] },
		set: func(s *RunSpec, v string) error {
			quick, err := strconv.ParseBool(v)
			s.Profile = profileNames[quick]
			return err
		}},
}

// Set assigns one knob from its text form (a flag value); it is the
// only assignment path from text. It parses but does not judge: an
// out-of-range value is Validate's to reject.
func (s *RunSpec) Set(key, val string) error {
	k, ok := runKeys[key]
	if !ok {
		return fmt.Errorf("bench: unknown run key %q", key)
	}
	if err := k.set(s, val); err != nil {
		return fmt.Errorf("bench: %s: %w", key, err)
	}
	return nil
}

// Flags registers every knob on fs as an ordinary typed flag whose
// default is s's value — s is the preset the command shows in -h.
func (s RunSpec) Flags(fs *flag.FlagSet) {
	for name, k := range runKeys {
		switch v := k.get(&s).(type) {
		case string:
			fs.String(name, v, k.usage)
		case int:
			fs.Int(name, v, k.usage)
		case int64:
			fs.Int64(name, v, k.usage)
		case float64:
			fs.Float64(name, v, k.usage)
		case bool:
			fs.Bool(name, v, k.usage)
		case time.Duration:
			fs.Duration(name, v, k.usage)
		}
	}
}

// SetFlags assigns every knob the operator passed on the parsed fs,
// validates the result, and reports which knobs those were. Knobs left
// alone keep s's values, so a preset chosen after parsing (crestbench
// -big) is overridden only by explicit flags.
func (s *RunSpec) SetFlags(fs *flag.FlagSet) (passed map[string]bool, err error) {
	passed = map[string]bool{}
	fs.Visit(func(f *flag.Flag) {
		if _, ok := runKeys[f.Name]; ok {
			passed[f.Name] = true
			err = errors.Join(err, s.Set(f.Name, f.Value.String()))
		}
	})
	return passed, errors.Join(err, s.Validate())
}

// Validate is the only validator of a run description: it rejects
// every value that would otherwise panic deep in a generator, silently
// fall back to a default, or measure an empty window. Its deployment
// half is the whole of a crest.Cluster's validation (ResolveDeployment).
func (s RunSpec) Validate() error {
	errs := []error{
		s.validateDeployment(),
		oneOf("profile", s.Profile, []string{profileNames[true], profileNames[false]}),
		check(s.Duration > s.Warmup, "duration %v leaves nothing to measure after warmup %v (duration is the total virtual time, warmup included)", s.Duration, s.Warmup),
	}
	if w := s.Workload; s.Scenario == nil { // a scenario validates its own workload section
		errs = append(errs,
			oneOf("workload", w.Kind, workloadNames),
			check(w.Kind != WLTPCC || w.Warehouses > 0, "warehouses must be positive, got %d", w.Warehouses),
			check(w.Kind != WLYCSB || w.RecordsPerTx > 0, "records per transaction must be positive, got %d", w.RecordsPerTx),
			check(w.Kind != WLYCSB || (w.WriteRatio >= 0 && w.WriteRatio <= 1), "write ratio must be in [0, 1], got %v", w.WriteRatio),
			check(w.Theta >= 0, "theta must not be negative, got %v", w.Theta))
	}
	return errors.Join(errs...)
}

// validateDeployment checks what describes the deployment — system,
// placement and topology — and nothing of the workload or the clock.
func (s RunSpec) validateDeployment() error {
	return errors.Join(
		oneOf("system", string(s.System), systemNames),
		oneOf("placement", s.Placement, placement.Names()),
		check(s.Coordinators > 0, "coordinators must be positive, got %d", s.Coordinators),
		check(s.MemNodes > 0, "memory nodes must be positive, got %d", s.MemNodes),
		check(s.CompNodes > 0, "compute nodes must be positive, got %d", s.CompNodes),
		check(s.MemNodes < 1 || (s.Replicas >= 0 && s.Replicas < s.MemNodes), "replicas must be in 0..%d, below the %d memory nodes, got %d", s.MemNodes-1, s.MemNodes, s.Replicas),
		check(s.Shards >= 1 && s.Shards <= memnode.MaxShards, "shards must be in 1..%d, got %d", memnode.MaxShards, s.Shards))
}

// check is nil when ok, else the formatted error.
func check(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// oneOf is nil when v is one of valid, else an error listing them.
func oneOf(what, v string, valid []string) error {
	return check(slices.Contains(valid, v), "unknown %s %q (%s)", what, v, strings.Join(valid, ", "))
}

// defaulted resolves the zero values a Go caller left to DefaultRun's
// — every knob of the table, and the testbed shape (MemNodes, CompNodes),
// which is no knob but is part of the run key, so a literal needs only
// what it changes and keys as the matrix does. The workload knobs
// default as a group: a workload that names only its kind takes the
// evaluation defaults, but once any knob is set the rest are literal,
// which is how Theta 0 (uniform) and WriteRatio 0 (read-only) stay
// expressible.
func (s RunSpec) defaulted() RunSpec {
	zero, def := RunSpec{}, DefaultRun()
	literal := s.Workload != WorkloadSpec{Kind: s.Workload.Kind}
	for _, k := range runKeys {
		if k.get(&s) == k.get(&zero) && !(k.knob && literal) {
			k.set(&s, fmt.Sprint(k.get(&def))) // a preset value always parses
		}
	}
	if s.MemNodes == 0 {
		s.MemNodes = def.MemNodes
	}
	if s.CompNodes == 0 {
		s.CompNodes = def.CompNodes
	}
	return s
}

// Resolve completes a spec written by hand: zero fields take
// DefaultRun's values, the result is validated, and the profile its
// name selects comes back with it, ready for Execute.
func (s RunSpec) Resolve() (RunSpec, Profile, error) {
	s = s.defaulted()
	if err := s.Validate(); err != nil {
		return s, Profile{}, err
	}
	if s.Profile == profileNames[true] {
		return s, Quick(), nil
	}
	return s, Full(), nil
}

// ResolveDeployment completes the deployment half of a spec for a
// caller that runs no workload (crest.Cluster): zero fields take
// DefaultRun's values, as Resolve gives them, and the deployment half
// of Validate checks the result. The workload, clock and profile fields
// come back defaulted and unchecked.
func (s RunSpec) ResolveDeployment() (RunSpec, error) {
	s = s.defaulted()
	return s, s.validateDeployment()
}

// Deployment copies the spec's deployment half onto inv — the
// invocation's share of a Config, what a spec may never hold (Workers,
// HotKeys, the recorders).
func (s RunSpec) Deployment(inv Config) Config {
	inv.System = s.System
	inv.MemNodes, inv.CompNodes = s.MemNodes, s.CompNodes
	inv.Shards, inv.Placement = s.Shards, s.Placement
	inv.Coordinators = s.Coordinators
	inv.Replicas = s.Replicas
	inv.Seed = s.Seed
	return inv
}

// config materializes the bench.Config the spec describes under p's
// table scales, on top of inv (see Deployment).
func (s RunSpec) config(p Profile, inv Config) (Config, error) {
	var err error
	if s.Scenario != nil {
		inv.Workload, err = p.ScenarioWorkload(s.Scenario)
	} else {
		inv.Workload, err = s.Workload.generator(p)
	}
	inv = s.Deployment(inv)
	inv.Duration, inv.Warmup = sim.Duration(s.Duration), sim.Duration(s.Warmup)
	return inv, err
}

// Execute is the one path from a run description to its outcome:
// resolve spec under p's table scales → run it (one transaction in
// OneTxn mode) → digest the Result into its durable record. The matrix
// runner, crest.RunBenchmark and through it both CLIs come here. inv is
// the invocation's share of the Config (see config); the Result comes
// back beside the record for what a record may never hold: wall-clock
// time, the generator's name, executor introspection.
func Execute(spec RunSpec, p Profile, inv Config) (*RunRecord, Result, error) {
	cfg, err := spec.config(p, inv)
	if err != nil {
		return nil, Result{}, err
	}
	if spec.OneTxn {
		verbs, err := oneTxnVerbs(cfg)
		if err != nil {
			return nil, Result{}, err
		}
		return &RunRecord{Key: spec.Key(), Spec: spec, Verbs: verbs}, Result{}, nil
	}
	res, err := Run(cfg)
	if err != nil {
		return nil, Result{}, err
	}
	return &RunRecord{
		Key:            spec.Key(),
		Spec:           spec,
		KOPS:           res.ThroughputKOPS(),
		Committed:      res.Committed,
		Aborted:        res.Aborted,
		FalseAborts:    res.FalseAborts,
		AbortRate:      res.AbortRate(),
		FalseAbortRate: res.FalseAbortRate(),
		Latency: LatencySummaryUs{
			Avg: res.Lat.Avg(), P50: res.Lat.P50(), P99: res.Lat.P99(), P999: res.Lat.P999(),
		},
		Phases: PhaseSummaryUs{
			Exec: res.Phases.AvgExec(), Validate: res.Phases.AvgValidate(), Commit: res.Phases.AvgCommit(),
		},
		Verbs:            res.Verbs,
		ElapsedUs:        res.Elapsed.Micros(),
		Events:           res.Events,
		ScenarioPhases:   res.ScenarioPhases,
		CrossShard:       res.CrossShard,
		CrossShardAborts: res.CrossShardAborts,
	}, res, nil
}

// LatencySummaryUs is a run's latency digest in microseconds.
type LatencySummaryUs struct {
	Avg  float64 `json:"avg"`
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
}

// PhaseSummaryUs is the per-phase average latency of committed
// transactions in microseconds.
type PhaseSummaryUs struct {
	Exec     float64 `json:"exec"`
	Validate float64 `json:"validate"`
	Commit   float64 `json:"commit"`
}

// RunRecord is the durable, machine-readable outcome of one run: the
// spec that produced it plus every metric the paper's tables report.
// It is what the in-process store memoizes and what -json emits.
type RunRecord struct {
	Key  string  `json:"key"`
	Spec RunSpec `json:"spec"`

	KOPS           float64 `json:"kops"`
	Committed      uint64  `json:"committed"`
	Aborted        uint64  `json:"aborted"`
	FalseAborts    uint64  `json:"false_aborts"`
	AbortRate      float64 `json:"abort_rate"`
	FalseAbortRate float64 `json:"false_abort_rate"`

	Latency LatencySummaryUs `json:"latency_us"`
	Phases  PhaseSummaryUs   `json:"phases_us"`

	Verbs     rdma.Stats `json:"verbs"`
	ElapsedUs float64    `json:"elapsed_us"`

	// Events is the number of scheduler dispatches the run consumed.
	// It is as deterministic as every other field — same spec, same
	// count — so it reproduces bit-for-bit; wall-clock
	// measurements, which do not, live in BenchPerf instead.
	Events uint64 `json:"events,omitempty"`
	// ScenarioPhases is the per-phase breakdown of scenario-driven
	// runs (absent otherwise; additive, so the schema version holds).
	ScenarioPhases []PhaseStat `json:"scenario_phases,omitempty"`
	// CrossShard counts measured attempts whose writes spanned shard
	// groups; CrossShardAborts is the aborted subset. Both are absent
	// on single-group runs (additive, so the schema version holds).
	CrossShard       uint64 `json:"cross_shard,omitempty"`
	CrossShardAborts uint64 `json:"cross_shard_aborts,omitempty"`
}

// Getter resolves one spec to its record; experiment renderers are
// written against it so they never trigger or order simulations
// themselves.
type Getter func(RunSpec) (*RunRecord, error)

// MatrixOptions configure a Runner.
type MatrixOptions struct {
	// Workers bounds concurrent simulations; ≤ 0 means GOMAXPROCS.
	Workers int
	// SimWorkers is the scheduler worker count inside each simulation
	// (Config.Workers): partitioned runs execute that many shard-group
	// partitions concurrently. Like Workers it is invocation-level —
	// results are byte-identical at any value — so it never enters a
	// spec key or a record. ≤ 0 means 1.
	SimWorkers int
}

// Runner executes run specs at most once each, keyed by RunSpec.Key,
// and serves the memoized records.
type Runner struct {
	profile    Profile
	workers    int
	simWorkers int

	mu        sync.Mutex
	store     map[string]*RunRecord
	simulated int
	// Wall-clock cost of the runs this runner simulated;
	// nondeterministic, reported via BenchPerf.
	simWallMS float64
	simEvents uint64
	// partEvents sums, per partition index, the events the executed
	// partitioned runs dispatched there (schedule-derived).
	partEvents []uint64
}

// NewRunner returns an empty runner over a profile.
func NewRunner(p Profile, opt MatrixOptions) *Runner {
	w := opt.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Runner{profile: p, workers: w, simWorkers: opt.SimWorkers,
		store: map[string]*RunRecord{}}
}

// Get returns the record for spec, executing the run if it is not
// memoized.
func (r *Runner) Get(spec RunSpec) (*RunRecord, error) {
	key := spec.Key()
	r.mu.Lock()
	rec := r.store[key]
	r.mu.Unlock()
	if rec != nil {
		return rec, nil
	}
	rec, res, err := Execute(spec, r.profile, Config{Workers: r.simWorkers})
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.store[key] = rec
	r.simulated++
	r.simWallMS += res.WallMS
	r.simEvents += res.Events
	if res.Runtime != nil && res.Runtime.Sim != nil {
		for _, ps := range res.Runtime.Sim.PartStats {
			for len(r.partEvents) <= ps.Part {
				r.partEvents = append(r.partEvents, 0)
			}
			r.partEvents[ps.Part] += ps.Events
		}
	}
	r.mu.Unlock()
	return rec, nil
}

// Prime deduplicates specs by key and resolves each through Get on the
// worker pool, so the not-yet-memoized remainder executes in parallel.
// It is the fan-out step of RunMatrix; after it returns, renderers hit
// only the in-process store.
func (r *Runner) Prime(specs []RunSpec) error {
	var todo []RunSpec
	seen := map[string]bool{}
	for _, spec := range specs {
		if key := spec.Key(); !seen[key] {
			seen[key] = true
			todo = append(todo, spec)
		}
	}
	errs := make([]error, len(todo))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(r.workers, len(todo)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if _, err := r.Get(todo[i]); err != nil {
					errs[i] = fmt.Errorf("%s: %w", todo[i].Key(), err)
				}
			}
		}()
	}
	for i := range todo {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// Records returns every memoized record sorted by key — the canonical
// order the JSON output uses, independent of execution order.
func (r *Runner) Records() []*RunRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	recs := make([]*RunRecord, 0, len(r.store))
	for _, rec := range r.store {
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	return recs
}

// Simulated reports how many simulations this runner executed
// (memoized repeats excluded).
func (r *Runner) Simulated() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.simulated
}

// Perf reports the wall-clock cost of the simulations this runner
// executed, or nil if it executed none.
func (r *Runner) Perf() *BenchPerf {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.simulated == 0 {
		return nil
	}
	workers := r.simWorkers
	if workers < 1 {
		workers = 1
	}
	p := &BenchPerf{
		SimWallMS:    r.simWallMS,
		Events:       r.simEvents,
		EventsPerSec: EventsPerSec(r.simEvents, r.simWallMS),
		Simulated:    r.simulated,
		Workers:      workers,
	}
	if len(r.partEvents) > 0 {
		p.PartEvents = append([]uint64(nil), r.partEvents...)
		if r.simWallMS > 0 {
			for _, n := range r.partEvents {
				p.PartEventsPerSec = append(p.PartEventsPerSec, EventsPerSec(n, r.simWallMS))
			}
		}
	}
	return p
}

// EventsPerSec is the simulator speed events dispatched in wallMS of
// real time amount to (0 when no time was measured).
func EventsPerSec(events uint64, wallMS float64) float64 {
	if wallMS <= 0 {
		return 0
	}
	return float64(events) / (wallMS / 1e3)
}

// BenchPerf is the simulator's own wall-clock performance over one
// matrix invocation's executed runs. Unlike everything else in a
// ResultSet it is nondeterministic (it measures the machine, not the
// simulated system), so it rides only in the measured encoding, and
// byte-identity tests use the canonical encoding without it.
type BenchPerf struct {
	// SimWallMS is the summed event-loop wall time of the executed
	// runs, in milliseconds.
	SimWallMS float64 `json:"sim_wall_ms"`
	// Events is the summed scheduler dispatch count of those runs.
	Events uint64 `json:"events"`
	// EventsPerSec is Events over SimWallMS.
	EventsPerSec float64 `json:"events_per_sec"`
	// Simulated counts the executed runs.
	Simulated int `json:"simulated"`
	// Workers is the scheduler worker count the invocation ran
	// partitioned simulations with (invocation-level: results are
	// byte-identical at any value).
	Workers int `json:"workers,omitempty"`
	// PartEvents sums, per partition index, the events the executed
	// partitioned runs dispatched there; absent when no run was
	// partitioned. Schedule-derived, unlike the *PerSec fields.
	PartEvents []uint64 `json:"part_events,omitempty"`
	// PartEventsPerSec is PartEvents over SimWallMS (nondeterministic).
	PartEventsPerSec []float64 `json:"part_events_per_sec,omitempty"`
}

// ResultSet is the schema-versioned JSON document -json emits: every
// unique run of a matrix invocation, in canonical (key) order.
type ResultSet struct {
	Schema  string       `json:"schema"`
	Profile string       `json:"profile"`
	Runs    []*RunRecord `json:"runs"`
	// Perf carries the invocation's simulator wall-clock measurements
	// when present (see MatrixResult.MeasuredResultSet).
	Perf *BenchPerf `json:"perf,omitempty"`
}

// Encode writes the set as deterministic, indented JSON.
func (s *ResultSet) Encode(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// DecodeResultSet parses a document produced by Encode and verifies
// its schema version.
func DecodeResultSet(r io.Reader) (*ResultSet, error) {
	var s ResultSet
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	if s.Schema != SchemaVersion {
		return nil, fmt.Errorf("bench: result set schema %q, want %q", s.Schema, SchemaVersion)
	}
	for i, rec := range s.Runs {
		if rec == nil { // every consumer dereferences its records
			return nil, fmt.Errorf("bench: result set run %d is null", i)
		}
	}
	return &s, nil
}

// ExperimentResult pairs an experiment id with its rendered tables.
type ExperimentResult struct {
	ID     string
	Tables []Table
}

// MatrixResult is one matrix invocation's full outcome.
type MatrixResult struct {
	Profile     string
	Experiments []ExperimentResult
	// Records are the unique runs behind the tables, in key order; each
	// was simulated once by this invocation.
	Records []*RunRecord
	// Perf is the simulator's wall-clock cost over those runs.
	Perf *BenchPerf
}

// ResultSet packages the records for JSON output in canonical form:
// fully deterministic, byte-identical across worker counts.
func (m *MatrixResult) ResultSet() *ResultSet {
	return &ResultSet{Schema: SchemaVersion, Profile: m.Profile, Runs: m.Records}
}

// MeasuredResultSet additionally attaches the invocation's simulator
// wall-clock performance (nondeterministic; compare canonical
// encodings, not measured ones).
func (m *MatrixResult) MeasuredResultSet() *ResultSet {
	s := m.ResultSet()
	s.Perf = m.Perf
	return s
}

// FormatTables renders every table in experiment order — the exact
// stdout of crestbench -exp, used by the byte-identity tests.
func (m *MatrixResult) FormatTables() string {
	var out []byte
	for _, er := range m.Experiments {
		for _, tab := range er.Tables {
			out = append(out, tab.Format()...)
			out = append(out, '\n')
		}
	}
	return string(out)
}

// RunMatrix regenerates the named experiments (all of them when ids is
// empty) over one shared, deduplicated result store: it collects every
// spec the experiments declare, executes the unique set on the worker
// pool, and renders each experiment's tables from the memoized
// records. Output is byte-identical for any worker count.
func RunMatrix(ids []string, p Profile, opt MatrixOptions) (*MatrixResult, error) {
	exps := Experiments
	if len(ids) > 0 {
		exps = make([]Experiment, 0, len(ids))
		for _, id := range ids {
			exp, ok := experimentByID(id)
			if !ok {
				return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ExperimentIDs())
			}
			exps = append(exps, exp)
		}
	}
	var specs []RunSpec
	for _, exp := range exps {
		specs = append(specs, exp.Specs(p)...)
	}
	runner := NewRunner(p, opt)
	if err := runner.Prime(specs); err != nil {
		return nil, err
	}
	out := &MatrixResult{Profile: p.Name}
	for _, exp := range exps {
		tables, err := exp.Render(p, runner.Get)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", exp.ID, err)
		}
		out.Experiments = append(out.Experiments, ExperimentResult{ID: exp.ID, Tables: tables})
	}
	out.Records = runner.Records()
	out.Perf = runner.Perf()
	return out, nil
}
