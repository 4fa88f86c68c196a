package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// stackSample is one entry of a `go tool pprof -traces` dump: a CPU
// weight and the call stack it was sampled on, innermost frame first.
type stackSample struct {
	Weight time.Duration
	Frames []string
}

// pprofTraces decodes a CPU profile into stack samples with the
// toolchain's own pprof, so the benchmark needs no profile decoder and
// no module dependency.
func pprofTraces(profile string) ([]stackSample, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return nil, fmt.Errorf("go tool pprof -traces: %w: %s", err, bytes.TrimSpace(exit.Stderr))
		}
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(bytes.NewReader(out))
}

// parseTraces reads the text `pprof -traces` prints: a header, then
// blocks separated by dashed rules, each a weight and the innermost
// frame on its first line and one calling frame per further line.
func parseTraces(r io.Reader) ([]stackSample, error) {
	var samples []stackSample
	var cur *stackSample
	inBody := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			inBody = true
			cur = nil
			continue
		}
		if !inBody {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if cur == nil {
			w, err := parseWeight(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: %q: %w", line, err)
			}
			samples = append(samples, stackSample{Weight: w})
			cur = &samples[len(samples)-1]
			fields = fields[1:]
		}
		if len(fields) > 0 {
			// A trailing "(inline)" marker is a separate field.
			cur.Frames = append(cur.Frames, fields[0])
		}
	}
	return samples, sc.Err()
}

// parseWeight reads pprof's duration spelling (10ms, 1.25s, 2.1min).
func parseWeight(s string) (time.Duration, error) {
	for _, u := range []struct {
		suffix string
		unit   time.Duration
	}{{"hrs", time.Hour}, {"min", time.Minute}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return time.Duration(v * float64(u.unit)), err
		}
	}
	return time.ParseDuration(s)
}

const (
	internalPrefix = "crest/internal/"
	runtimeLayer   = "go_runtime"
)

// layerOf charges a stack to the innermost crest/internal/<pkg> frame
// on it, so allocator, map and channel time lands on the layer that
// asked for it; workload sub-packages count as workload. A stack with
// no repository frame (GC workers, the idle scheduler) is go_runtime.
func layerOf(frames []string) string {
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, internalPrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
	}
	return runtimeLayer
}

// The cross-cutting flat views: a sample counts toward a view when any
// frame on its stack starts with one of the view's prefixes. Views
// overlap each other and the layer shares; they are not additive.
var flatViews = map[string][]string{
	"go_runtime.malloc_pct": {"runtime.mallocgc"},
	"go_runtime.sched_pct": {
		"runtime.chansend", "runtime.chanrecv", "runtime.gopark", "runtime.park_m", "runtime.mcall",
		"runtime.schedule", "runtime.findRunnable", "runtime.futex", "runtime.wakep", "runtime.ready",
		"runtime.goready", "runtime.casgstatus",
	},
	"go_runtime.gc_pct": {
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcStart",
		"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.sweepone", "runtime.scanobject",
	},
	"go_runtime.fmt_pct": {"fmt."},
}

func hasFrame(frames, prefixes []string) bool {
	for _, f := range frames {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// cpuShares buckets samples into <layer>.cpu_share_pct for every name
// in layers plus go_runtime (summing to 100) and the flat views.
func cpuShares(samples []stackSample, layers []string) (map[string]float64, error) {
	var total time.Duration
	byLayer := map[string]time.Duration{}
	byView := map[string]time.Duration{}
	for _, s := range samples {
		total += s.Weight
		byLayer[layerOf(s.Frames)] += s.Weight
		for view, prefixes := range flatViews {
			if hasFrame(s.Frames, prefixes) {
				byView[view] += s.Weight
			}
		}
	}
	if total <= 0 {
		return nil, fmt.Errorf("cpu profile holds no samples")
	}
	pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(total) }
	out := map[string]float64{}
	for _, l := range append([]string{runtimeLayer}, layers...) {
		out[l+".cpu_share_pct"] = pct(byLayer[l])
		delete(byLayer, l)
	}
	for l := range byLayer {
		return nil, fmt.Errorf("cpu profile charges layer %q, which has no cpu_share_pct metric", l)
	}
	for view := range flatViews {
		out[view] = pct(byView[view])
	}
	return out, nil
}
