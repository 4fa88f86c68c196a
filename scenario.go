package crest

import (
	"crest/internal/scenario"
)

// ScenarioSpec is the parsed form of a .spec workload file:
// godb-bench/YCSB-compatible workload keys plus a virtual-time traffic
// timeline of phases (constant load, ramps, diurnal sine curves,
// bursts, and hotspot drift). Feed one to BenchmarkConfig.Scenario, or
// run it from the CLI with `crestbench -run -spec file.spec`. See
// DESIGN.md §9 for the grammar and examples/scenarios/ for ready-made
// specs.
type ScenarioSpec = scenario.Spec

// ParseScenarioFile reads a .spec file, naming the scenario after the
// file when it has no name= property.
func ParseScenarioFile(path string) (*ScenarioSpec, error) {
	return scenario.ParseFile(path)
}
