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
//	*TraceSnapshot    Chrome trace_event JSON
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
	var write func(io.Writer) error
	switch s := snapshot.(type) {
	case *TraceSnapshot:
		write = func(w io.Writer) error { return WriteChromeTrace(w, s) }
		summary = fmt.Sprintf("[trace: %d events -> %s]", len(s.Events), path)
	case *MetricsSnapshot:
		switch {
		case strings.HasSuffix(path, ".csv"):
			write = func(w io.Writer) error { return WriteMetricsCSV(w, s) }
		case isJSON:
			write = func(w io.Writer) error { return WriteMetricsJSON(w, s) }
		default:
			write = func(w io.Writer) error { return WriteMetricsPrometheus(w, s) }
		}
		summary = fmt.Sprintf("[metrics: %d series, %d windows -> %s]", len(s.Series), len(s.Times), path)
	case *WhySnapshot:
		write = func(w io.Writer) error { return WriteWhyDOT(w, s) }
		if isJSON {
			write = func(w io.Writer) error { return WriteWhyJSON(w, s) }
		}
		summary = fmt.Sprintf("[why: %d txns, %d edges -> %s]", len(s.Txns), len(s.Edges), path)
	case *FlightSnapshot:
		write = func(w io.Writer) error { return WriteFlightTail(w, s, 5) }
		if isJSON {
			write = func(w io.Writer) error { return WriteFlightJSON(w, s) }
		}
		summary = fmt.Sprintf("[flight: %d txns, %d exemplars -> %s]", len(s.Txns), len(s.Exemplars), path)
	case *RuntimeStats:
		write = func(w io.Writer) error { return WriteRuntimeStats(w, s) }
		summary = fmt.Sprintf("[runtime: %d windows, %d partitions, %d workers -> %s]", s.Windows, s.Parts, s.Workers, path)
	case *MatrixResult:
		write = func(w io.Writer) error { return WriteBenchJSON(w, s) }
		summary = fmt.Sprintf("[json: %d run records -> %s]", len(s.Records), path)
	default:
		return "", fmt.Errorf("crest: no export for %T", snapshot)
	}
	return summary, WriteFile(path, write)
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
