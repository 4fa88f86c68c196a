// Scenario integration: materializing declarative .spec scenarios
// (internal/scenario) into runnable workloads, giving them RunSpec
// identities the memoizing matrix can dedupe, and the "scenario"
// experiment — the hotspot-drift demo swept across all engines.
package bench

import (
	"fmt"
	"time"

	"crest/internal/scenario"
	"crest/internal/workload"
	"crest/internal/workload/smallbank"
	"crest/internal/workload/tpcc"
	"crest/internal/workload/ycsb"
)

// ScenarioWorkload materializes a scenario spec into a workload
// factory under the profile's table scales: the spec's workload
// section configures the inner generator (unset fields defer to the
// profile, exactly as the equivalent hand-coded WorkloadSpec would),
// and the timeline wraps it in a scenario.Generator.
func (p Profile) ScenarioWorkload(s *scenario.Spec) (func() workload.Generator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var inner func() workload.Generator
	switch s.Workload {
	case scenario.WLYCSB:
		cfg := ycsb.DefaultConfig()
		cfg.Records = p.YCSBRecords
		if s.RecordCount > 0 {
			cfg.Records = s.RecordCount
		}
		if s.RecordsPerTxn > 0 {
			cfg.N = s.RecordsPerTxn
		}
		if s.FieldCount > 0 {
			cfg.NumCells = s.FieldCount
		}
		if s.FieldLength > 0 {
			cfg.CellSize = s.FieldLength
		}
		cfg.Theta = s.Theta
		cfg.Distribution = s.Distribution
		cfg.InsertProportion = s.InsertProportion
		cfg.PreLoaded = s.PreLoaded
		// The spec's proportions cover all operations; the generator
		// splits non-insert traffic by its write ratio.
		if rw := s.ReadProportion + s.UpdateProportion; rw > 0 {
			cfg.WriteRatio = s.UpdateProportion / rw
		}
		inner = func() workload.Generator { return ycsb.New(cfg) }
	case scenario.WLSmallBank:
		cfg := smallbank.Config{Accounts: p.SBAccounts, Theta: s.Theta}
		if s.RecordCount > 0 {
			cfg.Accounts = s.RecordCount
		}
		inner = func() workload.Generator { return smallbank.New(cfg) }
	case scenario.WLTPCC:
		cfg := p.TPCCScale
		cfg.Warehouses = 40
		if s.Warehouses > 0 {
			cfg.Warehouses = s.Warehouses
		}
		inner = func() workload.Generator { return tpcc.New(cfg) }
	default:
		return nil, fmt.Errorf("bench: scenario workload %q not runnable", s.Workload)
	}
	return func() workload.Generator { return scenario.NewGenerator(s, inner()) }, nil
}

// ScenarioSpec assembles a run spec for a scenario under the paper's
// testbed shape.
func (p Profile) ScenarioSpec(system SystemKind, sc *scenario.Spec, totalCoords int) RunSpec {
	return p.Spec(system, WorkloadSpec{Kind: "scenario"}, totalCoords).WithScenario(sc)
}

// WithScenario drives the run from sc instead of Workload. The run is
// stretched to cover the whole timeline when Duration is shorter.
func (s RunSpec) WithScenario(sc *scenario.Spec) RunSpec {
	s.Scenario = sc
	if tl := time.Duration(sc.TimelineDuration()); tl > s.Duration {
		s.Duration = tl
	}
	return s
}

// phaseStat looks up one phase's stats, tolerating records without
// them (the dry run's probe getter returns empty records).
func phaseStat(rec *RunRecord, i int) PhaseStat {
	if i < len(rec.ScenarioPhases) {
		return rec.ScenarioPhases[i]
	}
	return PhaseStat{Phase: i + 1}
}

// expScenario is the scenario experiment: the hotspot-drift demo
// (examples/scenarios/drift-demo.spec) on every engine, reported per
// phase. The hot key set migrates at each phase boundary while the
// offered load changes shape, so the per-phase abort rates show each
// system's response to drifting contention.
func expScenario(p Profile, get getter) []Table {
	demo := scenario.DriftDemo()
	recs := make(map[SystemKind]*RunRecord, len(mainSystems))
	for _, system := range mainSystems {
		recs[system] = get(p.ScenarioSpec(system, demo, p.MaxCoords))
	}
	tab := Table{ID: "scenario-drift",
		Title:  fmt.Sprintf("Per-phase commits and abort rate under hotspot drift — %s, %d coordinators", demo.Name, p.MaxCoords),
		Header: []string{"phase", "kind", "hotspot"}}
	for _, system := range mainSystems {
		tab.Header = append(tab.Header, string(system)+" commits", string(system)+" abort")
	}
	for i := range demo.Timeline {
		ph := &demo.Timeline[i]
		row := []string{fmt.Sprint(i + 1), ph.Kind, f2(ph.Hotspot)}
		for _, system := range mainSystems {
			ps := phaseStat(recs[system], i)
			row = append(row, fmt.Sprint(ps.Commits), pct(ps.AbortRate()))
		}
		tab.Rows = append(tab.Rows, row)
	}
	tab.Rows = append(tab.Rows, totalScenarioRow(recs))
	tab.Notes = append(tab.Notes,
		"the hot key set rotates by the hotspot fraction of the key space at each phase boundary",
		"phase 1 overlaps the warmup window, so its measured span is shorter than its duration")
	return []Table{tab}
}

// totalScenarioRow sums the per-phase stats into a footer row.
func totalScenarioRow(recs map[SystemKind]*RunRecord) []string {
	row := []string{"total", "", ""}
	for _, system := range mainSystems {
		var t PhaseStat
		for _, ps := range recs[system].ScenarioPhases {
			t.add(ps)
		}
		row = append(row, fmt.Sprint(t.Commits), pct(t.AbortRate()))
	}
	return row
}
