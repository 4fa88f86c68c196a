package crest

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// Export writes one of a run's outputs to path and returns the one-line
// summary the CLIs print for it. The value's type picks the view and
// the path's extension its format:
//
//	*TraceSnapshot    .spans per-transaction span timelines, .hotkeys
//	                  the top-20 hot-key profile, anything else Chrome
//	                  trace_event JSON
//	*MetricsSnapshot  .csv windowed time-series, .json crest-metrics
//	                  document, anything else Prometheus text
//	*WhySnapshot      .json crest-why document, anything else Graphviz DOT
//	*FlightSnapshot   .json crest-flight document, anything else the
//	                  rendered tail report (5 exemplars)
//	*RuntimeStats     crest-runtime JSON
//	*MatrixResult     crest-bench JSON (WriteBenchJSON)
//
// A new view is one more row here; both CLIs then export it.
func Export(path string, snapshot any) (summary string, err error) {
	isJSON := strings.HasSuffix(path, ".json")
	err = WriteFile(path, func(w io.Writer) error {
		switch s := snapshot.(type) {
		case *TraceSnapshot:
			summary = fmt.Sprintf("[trace: %d events -> %s]", len(s.Events), path)
			switch {
			case strings.HasSuffix(path, ".spans"):
				return WriteSpanSummary(w, s)
			case strings.HasSuffix(path, ".hotkeys"):
				return WriteHotKeys(w, s, 20)
			}
			return WriteChromeTrace(w, s)
		case *MetricsSnapshot:
			summary = fmt.Sprintf("[metrics: %d series, %d windows -> %s]", len(s.Series), len(s.Times), path)
			switch {
			case strings.HasSuffix(path, ".csv"):
				return WriteMetricsCSV(w, s)
			case isJSON:
				return WriteMetricsJSON(w, s)
			}
			return WriteMetricsPrometheus(w, s)
		case *WhySnapshot:
			summary = fmt.Sprintf("[why: %d txns, %d edges -> %s]", len(s.Txns), len(s.Edges), path)
			if isJSON {
				return WriteWhyJSON(w, s)
			}
			return WriteWhyDOT(w, s)
		case *FlightSnapshot:
			summary = fmt.Sprintf("[flight: %d txns, %d exemplars -> %s]", len(s.Txns), len(s.Exemplars), path)
			if isJSON {
				return WriteFlightJSON(w, s)
			}
			return WriteFlightTail(w, s, 5)
		case *RuntimeStats:
			summary = fmt.Sprintf("[runtime: %d windows, %d partitions, %d workers -> %s]", s.Windows, s.Parts, s.Workers, path)
			return WriteRuntimeStats(w, s)
		case *MatrixResult:
			summary = fmt.Sprintf("[json: %d run records -> %s]", len(s.Records), path)
			return WriteBenchJSON(w, s)
		}
		return fmt.Errorf("crest: no export for %T", snapshot)
	})
	return summary, err
}

// ReadFile opens path and parses it with read — ReadMetricsJSON,
// ReadWhyJSON, ReadFlightJSON, ReadRuntimeStats or ReadBenchJSON — and
// names the file when the document is rejected.
func ReadFile[T any](path string, read func(io.Reader) (*T, error)) (*T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // only read: nothing a failed close could lose
	s, err := read(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return s, nil
}

// WriteFile creates path, hands write a buffered writer on it, flushes
// and closes it, and reports the first thing that failed — a failed
// close included, which is where a full disk shows up.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
