// Exporters: Prometheus text exposition, CSV and JSON time-series, and
// an ASCII sparkline summary. All output is deterministic — series in
// registration order, fixed number formatting — so exported artifacts
// diff cleanly across runs and seeds.
package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// SchemaVersion identifies the JSON layout written by WriteJSON.
const SchemaVersion = "crest-metrics/v1"

// jsonDoc is the WriteJSON envelope.
type jsonDoc struct {
	Schema string `json:"schema"`
	*Snapshot
}

// WriteJSON emits the snapshot as a schema-versioned JSON document.
func WriteJSON(w io.Writer, s *Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonDoc{Schema: SchemaVersion, Snapshot: s})
}

// formatValue renders a sample or total without float noise: integers
// stay integers, everything else keeps shortest round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteCSV emits the windowed time-series as CSV: one row per sealed
// window, first column the window start in virtual microseconds, then
// one column per series (counters and histograms as per-window deltas,
// gauges as boundary values). Histogram columns carry observation
// counts and are suffixed _count.
func WriteCSV(w io.Writer, s *Snapshot) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("window_start_us")
	for i := range s.Series {
		se := &s.Series[i]
		id := se.ID()
		if se.Kind == KindHistogram {
			id += "_count"
		}
		bw.WriteByte(',')
		// Commas inside label values would break the row; quote per
		// RFC 4180 when present.
		if strings.ContainsAny(id, ",\"") {
			id = `"` + strings.ReplaceAll(id, `"`, `""`) + `"`
		}
		bw.WriteString(id)
	}
	bw.WriteByte('\n')
	for wi, t := range s.Times {
		fmt.Fprintf(bw, "%.3f", float64(t)/1e3)
		for i := range s.Series {
			bw.WriteByte(',')
			bw.WriteString(formatValue(s.Series[i].Samples[wi]))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WritePrometheus emits every instrument's end-of-run value in the
// Prometheus text exposition format (version 0.0.4): HELP and TYPE
// comments, then one sample line per series (histograms expand to
// cumulative _bucket lines plus _sum and _count). Virtual time has no
// wall-clock meaning, so no timestamps are attached; the output is a
// valid scrape file for promtool and file-based exporters.
func WritePrometheus(w io.Writer, s *Snapshot) error {
	bw := bufio.NewWriter(w)
	seen := map[string]bool{}
	for i := range s.Series {
		se := &s.Series[i]
		if !seen[se.Name] {
			seen[se.Name] = true
			if se.Help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", se.Name, se.Help)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", se.Name, se.Kind)
		}
		switch se.Kind {
		case KindHistogram:
			for _, b := range se.Buckets {
				le := "+Inf"
				if b.Le != 1<<63-1 {
					le = strconv.FormatInt(b.Le, 10)
				}
				fmt.Fprintf(bw, "%s_bucket{%sle=%q} %d\n", se.Name, labelPrefix(se.Labels), le, b.Count)
			}
			fmt.Fprintf(bw, "%s_sum%s %s\n", se.Name, labelBlock(se.Labels), formatValue(se.Sum))
			fmt.Fprintf(bw, "%s_count%s %s\n", se.Name, labelBlock(se.Labels), formatValue(se.Total))
		default:
			fmt.Fprintf(bw, "%s%s %s\n", se.Name, labelBlock(se.Labels), formatValue(se.Total))
		}
	}
	return bw.Flush()
}

// labelBlock renders "{labels}" or "" for a plain sample line.
func labelBlock(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// labelPrefix renders `labels,` for merging with an le="..." pair.
func labelPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

// sparkLevels are the eight block glyphs of an ASCII sparkline.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// sparkline renders samples scaled into sparkLevels, at most width
// cells wide (samples are averaged into cells when narrower).
func sparkline(samples []float64, width int) string {
	if len(samples) == 0 {
		return ""
	}
	cells := samples
	if len(samples) > width {
		cells = make([]float64, width)
		for i := range cells {
			lo := i * len(samples) / width
			hi := (i + 1) * len(samples) / width
			if hi == lo {
				hi = lo + 1
			}
			sum := 0.0
			for _, v := range samples[lo:hi] {
				sum += v
			}
			cells[i] = sum / float64(hi-lo)
		}
	}
	min, max := cells[0], cells[0]
	for _, v := range cells {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range cells {
		lvl := 0
		if max > min {
			lvl = int((v - min) / (max - min) * float64(len(sparkLevels)-1))
		}
		b.WriteRune(sparkLevels[lvl])
	}
	return b.String()
}

// WriteSparklines renders one line per windowed series: the series id,
// a sparkline of its per-window samples, and the min/mean/max of the
// samples — a terminal-friendly glance at how a run evolved over
// virtual time.
func WriteSparklines(w io.Writer, s *Snapshot) error {
	bw := bufio.NewWriter(w)
	if len(s.Times) == 0 {
		fmt.Fprintln(bw, "metrics: no sealed windows (series disabled or run shorter than one window)")
		return bw.Flush()
	}
	span := float64(s.Times[len(s.Times)-1]) / 1e3
	fmt.Fprintf(bw, "metrics: %d windows of %v over %.0fµs of virtual time\n",
		len(s.Times), s.Window, span+float64(s.Window)/1e3)
	const width = 60
	idw := 0
	for i := range s.Series {
		if n := len(s.Series[i].ID()); n > idw {
			idw = n
		}
	}
	for i := range s.Series {
		se := &s.Series[i]
		min, max, sum := se.Samples[0], se.Samples[0], 0.0
		for _, v := range se.Samples {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
			sum += v
		}
		fmt.Fprintf(bw, "%-*s %s min=%s mean=%s max=%s\n",
			idw, se.ID(), sparkline(se.Samples, width),
			formatValue(min), formatValue(sum/float64(len(se.Samples))), formatValue(max))
	}
	return bw.Flush()
}
