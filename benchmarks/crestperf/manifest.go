package main

import (
	"encoding/json"
	"io"
)

// manifest is BENCHMARK.json: the contract a driver reads to run this
// benchmark and to judge later changes by. -manifest prints it from
// the tables in this package, and a test pins the checked-in file to
// that output, so a metric or workload is renamed in one place.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []manifestWhy `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type manifestWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func theManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmarks/run.sh"},
		Paths:      []string{"benchmarks"},
		RunSeconds: nominalSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWhy{w.Name, w.Why})
	}
	for _, e := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e.metricDef)
	}
	m.PerLayer = perLayerDefs() // no bound: metricDef omits a zero one
	return m
}

func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(theManifest())
}
