package crest

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"

	"crest/internal/causality"
	"crest/internal/flight"
	"crest/internal/metrics"
	"crest/internal/trace"
)

// Export writes one of a run's outputs to path and returns the one-line
// summary the CLIs print for it. The value's type picks the view and
// the path's extension its format:
//
//	*TraceSnapshot    .spans per-transaction span timelines, anything
//	                  else Chrome trace_event JSON (opens in Perfetto)
//	*MetricsSnapshot  .csv windowed time-series, .json crest-metrics
//	                  document, anything else Prometheus text
//	*WhySnapshot      .json crest-why document, anything else Graphviz DOT
//	*FlightSnapshot   .json crest-flight document, anything else the
//	                  rendered tail report (5 exemplars)
//	*RuntimeStats     crest-runtime JSON
//	*MatrixResult     crest-bench JSON (the BENCH_*.json format)
//
// A nil value (the snapshot of an observer that was off) is an error,
// and no file is created. A new view is one more row here; both CLIs
// then export it.
func Export(path string, snapshot any) (summary string, err error) {
	isJSON := strings.HasSuffix(path, ".json")
	var (
		view  string
		write func(io.Writer) error
	)
	switch s := snapshot.(type) {
	case *TraceSnapshot:
		view, write = "trace", func(w io.Writer) error {
			summary = fmt.Sprintf("[trace: %d events -> %s]", len(s.Events), path)
			if strings.HasSuffix(path, ".spans") {
				return trace.WriteSpanSummary(w, s)
			}
			return trace.WriteChromeTrace(w, s)
		}
	case *MetricsSnapshot:
		view, write = "metrics", func(w io.Writer) error {
			summary = fmt.Sprintf("[metrics: %d series, %d windows -> %s]", len(s.Series), len(s.Times), path)
			switch {
			case strings.HasSuffix(path, ".csv"):
				return metrics.WriteCSV(w, s)
			case isJSON:
				return metrics.WriteJSON(w, s)
			}
			return metrics.WritePrometheus(w, s)
		}
	case *WhySnapshot:
		view, write = "why", func(w io.Writer) error {
			summary = fmt.Sprintf("[why: %d txns, %d edges -> %s]", len(s.Txns), len(s.Edges), path)
			if isJSON {
				return causality.WriteJSON(w, s)
			}
			return causality.WriteDOT(w, s)
		}
	case *FlightSnapshot:
		view, write = "flight", func(w io.Writer) error {
			summary = fmt.Sprintf("[flight: %d txns, %d exemplars -> %s]", len(s.Txns), len(s.Exemplars), path)
			if isJSON {
				return flight.WriteJSON(w, s)
			}
			return flight.WriteTail(w, s, 5)
		}
	case *RuntimeStats:
		view, write = "runtime", func(w io.Writer) error {
			summary = fmt.Sprintf("[runtime: %d windows, %d partitions, %d workers -> %s]", s.Windows, s.Parts, s.Workers, path)
			return writeRuntimeStats(w, s)
		}
	case *MatrixResult:
		view, write = "matrix", func(w io.Writer) error {
			summary = fmt.Sprintf("[json: %d run records -> %s]", len(s.Records), path)
			return s.MeasuredResultSet().Encode(w)
		}
	default:
		return "", fmt.Errorf("crest: no export for %T", snapshot)
	}
	if reflect.ValueOf(snapshot).IsNil() {
		return "", fmt.Errorf("crest: no %s snapshot to write to %s", view, path)
	}
	err = writeFile(path, write)
	return summary, err
}

// ReadFile opens path and parses it with read — ReadWhyJSON,
// ReadFlightJSON, ReadRuntimeStats or ReadBenchJSON — and names the
// file when the document is rejected.
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

// writeFile creates path, hands write a buffered writer on it, flushes
// and closes it, and reports the first thing that failed — a failed
// close included, which is where a full disk shows up.
func writeFile(path string, write func(io.Writer) error) error {
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
