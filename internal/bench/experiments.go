package bench

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"crest/internal/engine"
	"crest/internal/layout"
	"crest/internal/sim"
	"crest/internal/workload"
	"crest/internal/workload/smallbank"
	"crest/internal/workload/tpcc"
	"crest/internal/workload/ycsb"
)

// Profile scales every experiment: Quick finishes a full sweep in
// minutes for CI; Full approaches the paper's configuration (three
// compute nodes, up to 240 coordinators, larger tables, longer
// measured windows) and is what EXPERIMENTS.md records.
type Profile struct {
	Name        string
	Duration    sim.Duration
	Warmup      sim.Duration
	CoordSweep  []int // total coordinators across compute nodes
	MaxCoords   int   // the "240 coordinators" point
	YCSBRecords int
	SBAccounts  int
	TPCCScale   tpcc.Config // warehouse count overridden per experiment
	Replicas    int
	Seed        int64
}

// Quick is the CI-sized profile.
func Quick() Profile {
	return Profile{
		Name:        "quick",
		Duration:    5 * sim.Millisecond,
		Warmup:      1 * sim.Millisecond,
		CoordSweep:  []int{24, 72, 120},
		MaxCoords:   120,
		YCSBRecords: 20_000,
		SBAccounts:  20_000,
		TPCCScale: tpcc.Config{
			Districts:            10,
			CustomersPerDistrict: 16,
			Items:                256,
			OrdersPerDistrict:    32,
			MaxOrderLines:        10,
			HistoryCap:           1 << 13,
		},
		Replicas: 1,
		Seed:     1,
	}
}

// Full approaches the paper's setup.
func Full() Profile {
	return Profile{
		Name:        "full",
		Duration:    10 * sim.Millisecond,
		Warmup:      2 * sim.Millisecond,
		CoordSweep:  []int{24, 72, 144, 240},
		MaxCoords:   240,
		YCSBRecords: 1_000_000, // the paper's table size

		SBAccounts: 100_000,
		TPCCScale: tpcc.Config{
			Districts:            10,
			CustomersPerDistrict: 48,
			Items:                1000,
			OrdersPerDistrict:    64,
			MaxOrderLines:        10,
			HistoryCap:           1 << 15,
		},
		Replicas: 1,
		Seed:     1,
	}
}

// TPCC builds a TPC-C generator factory at the given warehouse count.
func (p Profile) TPCC(warehouses int) func() workload.Generator {
	cfg := p.TPCCScale
	cfg.Warehouses = warehouses
	return func() workload.Generator { return tpcc.New(cfg) }
}

// SmallBank builds a SmallBank generator factory.
func (p Profile) SmallBank(theta float64) func() workload.Generator {
	return func() workload.Generator {
		return smallbank.New(smallbank.Config{Accounts: p.SBAccounts, Theta: theta})
	}
}

// YCSB builds a YCSB generator factory.
func (p Profile) YCSB(theta, writeRatio float64, n int) func() workload.Generator {
	return func() workload.Generator {
		cfg := ycsb.DefaultConfig()
		cfg.Records = p.YCSBRecords
		cfg.Theta = theta
		cfg.WriteRatio = writeRatio
		cfg.N = n
		return ycsb.New(cfg)
	}
}

// Table is one regenerated artifact (a paper table or figure series).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", w+2, cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// The systems each experiment compares: the paper's three, and the
// two baselines of its motivating figures.
var (
	mainSystems     = []SystemKind{CREST, FORD, Motor}
	baselineSystems = []SystemKind{FORD, Motor}
)

// mainHeader is the header of a table with one column per main system.
func mainHeader(x string) []string { return []string{x, "CREST", "FORD", "Motor"} }

// experiment is one regenerable artifact: an id plus a renderer that
// asks the getter for every run it needs and formats the tables. The
// spec list is derived from the renderer itself (see specs), so the
// declared matrix and the rendered cells cannot drift apart.
type experiment struct {
	id     string
	render func(Profile, getter) []Table
}

// specs enumerates every run the experiment needs, by dry-running the
// renderer with a probe getter that records specs and returns empty
// records.
func (e experiment) specs(p Profile) []RunSpec {
	var specs []RunSpec
	e.render(p, func(s RunSpec) *RunRecord {
		specs = append(specs, s)
		return &RunRecord{Key: s.Key(), Spec: s}
	})
	return specs
}

// sweep fills tab with one row per x: label(x), then the cells of the
// record of spec(system, x) for each system in turn.
func sweep[X any](get getter, tab Table, xs []X, label func(X) string, systems []SystemKind,
	spec func(SystemKind, X) RunSpec, cells func(*RunRecord) []string) Table {
	for _, x := range xs {
		row := []string{label(x)}
		for _, system := range systems {
			row = append(row, cells(get(spec(system, x)))...)
		}
		tab.Rows = append(tab.Rows, row)
	}
	return tab
}

// specAt specs each system on the workload wl(x) at coords coordinators.
func specAt[X any](p Profile, coords int, wl func(X) WorkloadSpec) func(SystemKind, X) RunSpec {
	return func(system SystemKind, x X) RunSpec { return p.Spec(system, wl(x), coords) }
}

// The cells most sweeps render.
func kops(rec *RunRecord) []string { return []string{f1(rec.KOPS)} }

func phases(rec *RunRecord) []string {
	return []string{f1(rec.Phases.Exec), f1(rec.Phases.Validate), f1(rec.Phases.Commit)}
}

// fig2 reproduces the motivating experiment: FORD and Motor throughput
// versus contention level (§2.3).
func fig2(p Profile, get getter) []Table {
	coords := p.MaxCoords / 2 * 2
	return []Table{
		sweep(get, Table{ID: "fig2a", Title: "FORD/Motor throughput (KOPS) vs TPC-C warehouses",
			Header: []string{"warehouses", "FORD", "Motor"}},
			[]int{80, 60, 40, 20}, strconv.Itoa, baselineSystems, specAt(p, coords, TPCCSpec), kops),
		sweep(get, Table{ID: "fig2b", Title: "FORD/Motor throughput (KOPS) vs SmallBank skew",
			Header: []string{"theta", "FORD", "Motor"}},
			[]float64{0.1, 0.5, 0.9, 0.99, 1.22}, f2, baselineSystems, specAt(p, coords, SmallBankSpec), kops),
	}
}

// fig3 reproduces the abort-rate analysis: total abort rate and the
// fraction caused by false conflicts, under TPC-C.
func fig3(p Profile, get getter) []Table {
	return []Table{sweep(get, Table{ID: "fig3", Title: "Abort rate and false-abort rate vs TPC-C warehouses",
		Header: []string{"warehouses", "FORD abort", "FORD false", "Motor abort", "Motor false"},
		Notes:  []string{"paper: at 20 warehouses FORD/Motor abort 75.9%/85.2%, false-abort 40.7%/44.1%"}},
		[]int{80, 60, 40, 20}, strconv.Itoa, baselineSystems, specAt(p, p.MaxCoords, TPCCSpec),
		func(rec *RunRecord) []string { return []string{pct(rec.AbortRate), pct(rec.FalseAbortRate)} })}
}

// fig4 reproduces Motor's latency breakdown under varying contention.
func fig4(p Profile, get getter) []Table {
	motor := []SystemKind{Motor}
	return []Table{
		sweep(get, Table{ID: "fig4a", Title: "Motor latency breakdown (µs) vs TPC-C warehouses",
			Header: []string{"warehouses", "execution", "validation", "commit"}},
			[]int{80, 40, 20}, strconv.Itoa, motor, specAt(p, p.MaxCoords, TPCCSpec), phases),
		sweep(get, Table{ID: "fig4b", Title: "Motor latency breakdown (µs) vs SmallBank skew",
			Header: []string{"theta", "execution", "validation", "commit"}},
			[]float64{0.1, 0.99, 1.22}, f2, motor, specAt(p, p.MaxCoords, SmallBankSpec), phases),
	}
}

// table1 reproduces the space-overhead analysis from the workload
// schemas, weighting each table by its record count. It runs no
// simulations — the numbers are pure layout arithmetic.
func table1(p Profile, _ getter) []Table {
	workloads := []struct {
		name string
		defs []workload.TableDef
	}{
		{"TPC-C", p.TPCC(40)().Tables()},
		{"SmallBank", p.SmallBank(0.99)().Tables()},
		{"YCSB", p.YCSB(0.99, 0.5, 4)().Tables()},
	}
	out := make([]Table, 0, 2)
	for _, padded := range []bool{false, true} {
		id, title := "table1a", "Space overhead in memory nodes (metadata only, no padding)"
		if padded {
			id, title = "table1b", "Space overhead in memory nodes (with cacheline padding)"
		}
		tab := Table{ID: id, Title: title,
			Header: []string{"workload", "FORD", "Motor", "CREST"}}
		for _, wl := range workloads {
			row := []string{wl.name}
			for _, sys := range []layout.System{layout.SysFORD, layout.SysMotor, layout.SysCREST} {
				data, meta := 0, 0
				for _, def := range wl.defs {
					u := layout.Space(sys, def.Schema, padded)
					data += u.Data * def.Capacity
					meta += u.Meta * def.Capacity
				}
				row = append(row, pct(float64(meta)/float64(data)))
			}
			tab.Rows = append(tab.Rows, row)
		}
		tab.Notes = append(tab.Notes,
			"expected ordering (paper Table 1): FORD < CREST < Motor on multi-cell tables")
		out = append(out, tab)
	}
	return out
}

// twoRecordGen is the Table 2 micro-workload: each transaction updates
// one cell of one record and reads one cell of another.
type twoRecordGen struct{}

func (twoRecordGen) Name() string { return "two-record" }

func (twoRecordGen) Tables() []workload.TableDef {
	return []workload.TableDef{{
		Schema:   layout.Schema{ID: 90, Name: "probe", CellSizes: []int{8, 8}},
		Capacity: 4,
	}}
}

func (twoRecordGen) Load(fn func(layout.TableID, layout.Key, [][]byte)) {
	for k := 0; k < 4; k++ {
		fn(90, layout.Key(k), [][]byte{workload.U64(0, 8), workload.U64(0, 8)})
	}
}

func (twoRecordGen) Next(_ *rand.Rand) *engine.Txn {
	return &engine.Txn{Label: "probe", Blocks: []engine.Block{{Ops: []engine.Op{
		{
			Table: 90, Key: 0, ReadCells: []int{0}, WriteCells: []int{0},
			Hook: func(_ any, read [][]byte) [][]byte {
				return [][]byte{workload.PutU64(read[0], workload.GetU64(read[0])+1)}
			},
		},
		{
			Table: 90, Key: 1, ReadCells: []int{1},
			Hook: func(_ any, _ [][]byte) [][]byte { return nil },
		},
	}}}}
}

// table2 reproduces the per-transaction verb profile: one uncontended
// transaction (one read-write record + one read-only record) per
// system.
func table2(p Profile, get getter) []Table {
	tab := Table{ID: "table2", Title: "RDMA verbs for one uncontended txn (1 RW + 1 RO record)",
		Header: []string{"system", "READ", "WRITE", "CAS", "masked-CAS", "round-trips"}}
	for _, system := range []SystemKind{FORD, Motor, CREST} {
		spec := p.Spec(system, TwoRecordSpec(), 1)
		spec.CompNodes = 1
		spec.OneTxn = true
		v := get(spec).Verbs
		tab.Rows = append(tab.Rows, []string{string(system),
			fmt.Sprint(v.Reads), fmt.Sprint(v.Writes), fmt.Sprint(v.CASes), fmt.Sprint(v.MaskedCASes), fmt.Sprint(v.RTTs)})
	}
	tab.Notes = append(tab.Notes,
		"paper Table 2: FORD/Motor use CAS+READ / READ / WRITE+CAS; CREST masked-CAS+READ / READ / WRITE+masked-CAS",
		"Motor reads whole version tables: same round-trips as FORD but larger payloads")
	return []Table{tab}
}

// workloadsUnderTest are the three benchmark configurations of §8.3.
var workloadsUnderTest = []struct {
	name string
	wl   WorkloadSpec
}{
	{"tpcc", TPCCSpec(40)},
	{"smallbank", SmallBankSpec(0.99)},
	{"ycsb", YCSBSpec(0.99, 0.5, 4)},
}

// exp1 is Fig 11: throughput versus coordinator count.
func exp1(p Profile, get getter) []Table {
	return sweepCoords(p, get, "exp1", "Throughput (KOPS) vs coordinators", kops)
}

// exp2 is Fig 12: average and median latency versus coordinator count.
// Its sweep is the exact spec set exp1 runs, so under a shared runner
// it re-renders exp1's records without a single new simulation.
func exp2(p Profile, get getter) []Table {
	return append(
		sweepCoords(p, get, "exp2-avg", "Average latency (µs) vs coordinators",
			func(rec *RunRecord) []string { return []string{f1(rec.Latency.Avg)} }),
		sweepCoords(p, get, "exp2-p50", "Median latency (µs) vs coordinators",
			func(rec *RunRecord) []string { return []string{f1(rec.Latency.P50)} })...)
}

// sweepCoords is one table per workload under test: the main systems
// across the profile's coordinator sweep.
func sweepCoords(p Profile, get getter, id, title string, cells func(*RunRecord) []string) []Table {
	var out []Table
	for _, wl := range workloadsUnderTest {
		out = append(out, sweep(get, Table{ID: id + "-" + wl.name, Title: title + " — " + wl.name,
			Header: mainHeader("coordinators")}, p.CoordSweep, strconv.Itoa, mainSystems,
			func(system SystemKind, coords int) RunSpec { return p.Spec(system, wl.wl, coords) }, cells))
	}
	return out
}

// exp3 is Fig 13: tail latencies at the maximum coordinator count.
func exp3(p Profile, get getter) []Table {
	var out []Table
	for _, wl := range workloadsUnderTest {
		tab := Table{ID: "exp3-" + wl.name, Title: fmt.Sprintf("Tail latency (µs) at %d coordinators — %s", p.MaxCoords, wl.name),
			Header: []string{"system", "P99", "P999"}}
		for _, system := range mainSystems {
			l := get(p.Spec(system, wl.wl, p.MaxCoords)).Latency
			tab.Rows = append(tab.Rows, []string{string(system), f1(l.P99), f1(l.P999)})
		}
		out = append(out, tab)
	}
	return out
}

// skewSettings reproduce §8.4's high/low skew pairs. The id keys the
// table ids structurally — spec-level deduplication makes any repeat
// of a setting share its runs, so no display-level dedupe is needed.
var skewSettings = []struct {
	id   string
	name string
	wl   WorkloadSpec
}{
	{"tpcc-high", "tpcc-high (40wh)", TPCCSpec(40)},
	{"tpcc-low", "tpcc-low (100wh)", TPCCSpec(100)},
	{"smallbank-high", "smallbank-high (θ.99)", SmallBankSpec(0.99)},
	{"smallbank-low", "smallbank-low (θ.1)", SmallBankSpec(0.1)},
	{"ycsb-high", "ycsb-high (θ.99)", YCSBSpec(0.99, 0.5, 4)},
	{"ycsb-low", "ycsb-low (θ.1)", YCSBSpec(0.1, 0.5, 4)},
}

// exp4 is Fig 14: per-phase latency breakdown for all three systems
// under high and low skew.
func exp4(p Profile, get getter) []Table {
	var out []Table
	for _, setting := range skewSettings {
		tab := Table{ID: "exp4-" + setting.id, Title: "Latency breakdown (µs) — " + setting.name,
			Header: []string{"system", "execution", "validation", "commit"}}
		for _, system := range mainSystems {
			tab.Rows = append(tab.Rows, append([]string{string(system)}, phases(get(p.Spec(system, setting.wl, p.MaxCoords)))...))
		}
		out = append(out, tab)
	}
	return out
}

// exp5 is Fig 15: factor analysis — Base, +cell-level CC, then full
// CREST (localized execution + parallel commits), normalized to Base.
func exp5(p Profile, get getter) []Table {
	var out []Table
	for _, setting := range skewSettings {
		tab := Table{ID: "exp5-" + setting.id, Title: "Factor analysis (normalized throughput) — " + setting.name,
			Header: []string{"variant", "KOPS", "vs Base"}}
		var base float64
		for _, system := range []SystemKind{CRESTBase, CRESTCell, CREST} {
			k := get(p.Spec(system, setting.wl, p.MaxCoords)).KOPS
			if system == CRESTBase {
				base = k
			}
			norm := "1.00"
			if base > 0 {
				norm = f2(k / base)
			}
			tab.Rows = append(tab.Rows, []string{string(system), f1(k), norm})
		}
		out = append(out, tab)
	}
	return out
}

// The Zipf θ sweep exp6 and tailprof share, and the workloads they
// sweep it on.
var (
	thetaSweep      = []float64{0.1, 0.5, 0.9, 0.99, 1.11}
	skewedWorkloads = []struct {
		name string
		spec func(theta float64) WorkloadSpec
	}{
		{"smallbank", SmallBankSpec},
		{"ycsb", func(theta float64) WorkloadSpec { return YCSBSpec(theta, 0.5, 4) }},
	}
)

// exp6 is Fig 16: throughput versus skewness for all three systems.
func exp6(p Profile, get getter) []Table {
	out := []Table{sweep(get, Table{ID: "exp6-tpcc", Title: "Throughput (KOPS) vs TPC-C warehouses",
		Header: mainHeader("warehouses")},
		[]int{100, 80, 60, 40, 20}, strconv.Itoa, mainSystems, specAt(p, p.MaxCoords, TPCCSpec), kops)}
	for _, wl := range skewedWorkloads {
		out = append(out, sweep(get, Table{ID: "exp6-" + wl.name, Title: "Throughput (KOPS) vs Zipf theta — " + wl.name,
			Header: mainHeader("theta")}, thetaSweep, f2, mainSystems, specAt(p, p.MaxCoords, wl.spec), kops))
	}
	return out
}

// exp7 is Fig 17: YCSB throughput and average latency versus the
// number of records accessed per transaction.
func exp7(p Profile, get getter) []Table {
	var out []Table
	for _, theta := range []float64{0.99, 0.1} {
		ns := []int{1, 2, 3, 4}
		spec := specAt(p, p.MaxCoords, func(n int) WorkloadSpec { return YCSBSpec(theta, 0.5, n) })
		out = append(out,
			sweep(get, Table{ID: fmt.Sprintf("exp7-tput-θ%.2f", theta),
				Title:  fmt.Sprintf("YCSB throughput (KOPS) vs records per txn (θ=%.2f)", theta),
				Header: mainHeader("N")}, ns, strconv.Itoa, mainSystems, spec, kops),
			sweep(get, Table{ID: fmt.Sprintf("exp7-lat-θ%.2f", theta),
				Title:  fmt.Sprintf("YCSB average latency (µs) vs records per txn (θ=%.2f)", theta),
				Header: mainHeader("N")}, ns, strconv.Itoa, mainSystems, spec,
				func(rec *RunRecord) []string { return []string{f1(rec.Latency.Avg)} }))
	}
	return out
}

// exp8 is Fig 18: YCSB throughput versus write ratio.
func exp8(p Profile, get getter) []Table {
	var out []Table
	for _, theta := range []float64{0.99, 0.1} {
		out = append(out, sweep(get, Table{ID: fmt.Sprintf("exp8-θ%.2f", theta),
			Title:  fmt.Sprintf("YCSB throughput (KOPS) vs write ratio (θ=%.2f)", theta),
			Header: mainHeader("write%")},
			[]float64{1.0, 0.75, 0.5, 0.25, 0.0}, func(ratio float64) string { return fmt.Sprintf("%.0f", 100*ratio) },
			mainSystems, specAt(p, p.MaxCoords, func(ratio float64) WorkloadSpec { return YCSBSpec(theta, ratio, 4) }), kops))
	}
	return out
}

// expCrossover is the sharding crossover study (not in the paper; it
// exercises the topology layer): a hot Zipfian YCSB mix (θ=1.22, 50%
// writes, 4 records per transaction) swept over shard-group counts
// under modulo versus hotspot-aware placement, per engine. Modulo
// placement scatters the hot set across groups, so at higher shard
// counts nearly every write transaction pays the cross-shard prepare
// round and holds its locks longer; hotspot-aware placement colocates
// the hot keys on one group and recovers most of the loss. The
// shards=1 row is the classic single-group spec (hash placement),
// shared by both placement columns as the common baseline.
func expCrossover(p Profile, get getter) []Table {
	wl := YCSBSpec(1.22, 0.5, 4)
	var out []Table
	for _, system := range mainSystems {
		tab := Table{ID: "crossover-" + string(system),
			Title:  fmt.Sprintf("%s: YCSB θ=1.22 throughput (KOPS) and cross-shard txn share vs shard groups", system),
			Header: []string{"shards", "modulo KOPS", "modulo xshard", "hotspot KOPS", "hotspot xshard"}}
		for _, shards := range []int{1, 2, 3, 4, 6} {
			row := []string{fmt.Sprint(shards)}
			for _, policy := range []string{"modulo", "hotspot"} {
				spec := p.Spec(system, wl, p.MaxCoords)
				if shards > 1 {
					spec.Shards = shards
					spec.Placement = policy
				}
				rec := get(spec)
				share := 0.0
				if attempts := rec.Committed + rec.Aborted; attempts > 0 {
					share = float64(rec.CrossShard) / float64(attempts)
				}
				row = append(row, f1(rec.KOPS), pct(share))
			}
			tab.Rows = append(tab.Rows, row)
		}
		tab.Notes = append(tab.Notes,
			"shards=1 is the single-group baseline; hotspot seeds itself from a modulo-placement contention probe")
		out = append(out, tab)
	}
	return out
}

// expTailProf is the tail-latency profile (not in the paper; it feeds
// the flight recorder's aggregate story): the exp6 skew sweep re-read
// for its latency quantiles instead of throughput. For each workload
// and engine it reports p50/p99/p99.9 across θ plus the tail
// amplification p99.9/p50 — how far the slowest 0.1% detaches from
// the typical transaction as contention concentrates. The specs are
// exactly exp6's, so a shared matrix run renders this experiment
// without a single new simulation.
func expTailProf(p Profile, get getter) []Table {
	var out []Table
	for _, wl := range skewedWorkloads {
		spec := specAt(p, p.MaxCoords, wl.spec)
		out = append(out,
			sweep(get, Table{ID: "tailprof-" + wl.name,
				Title:  "Latency quantiles (µs) vs Zipf theta — " + wl.name,
				Header: []string{"theta", "CREST p50", "CREST p99", "CREST p999", "FORD p50", "FORD p99", "FORD p999", "Motor p50", "Motor p99", "Motor p999"}},
				thetaSweep, f2, mainSystems, spec, func(rec *RunRecord) []string {
					l := rec.Latency
					return []string{f1(l.P50), f1(l.P99), f1(l.P999)}
				}),
			sweep(get, Table{ID: "tailprof-" + wl.name + "-amp",
				Title:  "Tail amplification (p99.9 / p50) vs Zipf theta — " + wl.name,
				Header: mainHeader("theta"),
				Notes:  []string{"same runs as exp6; drill into one point with crestbench -run -flight and cresttrace tail"}},
				thetaSweep, f2, mainSystems, spec, func(rec *RunRecord) []string {
					ratio := 0.0
					if l := rec.Latency; l.P50 > 0 {
						ratio = l.P999 / l.P50
					}
					return []string{f1(ratio)}
				}))
	}
	return out
}

// experiments lists every regenerable artifact once, in the paper's
// order: the order -list prints and -exp all renders.
var experiments = []experiment{
	{id: "fig2", render: fig2},
	{id: "fig3", render: fig3},
	{id: "fig4", render: fig4},
	{id: "table1", render: table1},
	{id: "table2", render: table2},
	{id: "exp1", render: exp1},
	{id: "exp2", render: exp2},
	{id: "exp3", render: exp3},
	{id: "exp4", render: exp4},
	{id: "exp5", render: exp5},
	{id: "exp6", render: exp6},
	{id: "exp7", render: exp7},
	{id: "exp8", render: exp8},
	{id: "scenario", render: expScenario},
	{id: "crossover", render: expCrossover},
	{id: "tailprof", render: expTailProf},
}

// ExperimentIDs lists the experiment ids in the paper's order.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// experimentByID looks an experiment up by its id.
func experimentByID(id string) (experiment, bool) {
	i := slices.IndexFunc(experiments, func(e experiment) bool { return e.id == id })
	if i < 0 {
		return experiment{}, false
	}
	return experiments[i], true
}
