// Package scenario makes workloads declarative: a .spec file (in the
// properties style of YCSB workload files, with godb-bench-compatible
// keys) describes a workload — operation proportions, request
// distribution, record counts, records per transaction — plus a
// virtual-time traffic timeline of phases: constant load, linear
// ramps, diurnal sine curves, bursts, and hotspot drift (the hot key
// set migrating mid-run via deterministic key-space rotation).
//
// A scenario preserves the repository's determinism contract: the
// timeline is evaluated as a pure function of the virtual clock, load
// is modulated by gating coordinator admission (no extra randomness is
// drawn, and a trivial timeline schedules no extra events), and drift
// remaps keys through a bijection, so the same seed and the same spec
// reproduce byte-identical output — and a spec describing a static
// workload is byte-equal to the equivalent hand-coded configuration.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"

	"crest/internal/sim"
)

// Phase kinds a timeline can use.
const (
	PhaseConstant = "constant"
	PhaseRamp     = "ramp"
	PhaseSine     = "sine"
	PhaseBurst    = "burst"
)

// Workload kinds a spec can name.
const (
	WLYCSB      = "ycsb"
	WLSmallBank = "smallbank"
	WLTPCC      = "tpcc"
)

// DefaultResolution is the admission-decision grid: gated coordinators
// re-evaluate the timeline at phase boundaries, burst edges and every
// Resolution of virtual time.
const DefaultResolution = 50 * sim.Microsecond

// Phase is one segment of the traffic timeline. Load values are
// fractions of the run's coordinator count in [0, 1]; Hotspot is the
// drift offset as a fraction of each table's key space in [0, 1).
type Phase struct {
	Kind     string       `json:"kind"`
	Duration sim.Duration `json:"duration_ns"`

	Load float64 `json:"load,omitempty"` // constant
	From float64 `json:"from,omitempty"` // ramp start
	To   float64 `json:"to,omitempty"`   // ramp end

	Min    float64      `json:"min,omitempty"` // sine trough
	Max    float64      `json:"max,omitempty"` // sine crest
	Period sim.Duration `json:"period_ns,omitempty"`

	Base  float64      `json:"base,omitempty"`     // burst floor
	Peak  float64      `json:"peak,omitempty"`     // burst ceiling
	Burst sim.Duration `json:"burst_ns,omitempty"` // burst length
	Every sim.Duration `json:"every_ns,omitempty"` // burst cycle

	Hotspot float64 `json:"hotspot,omitempty"` // drift offset
}

// load evaluates the phase at local time u (u may exceed Duration when
// this is the timeline's final phase: ramps hold their end value,
// periodic phases keep oscillating).
func (ph *Phase) load(u sim.Duration) float64 {
	switch ph.Kind {
	case PhaseConstant:
		return ph.Load
	case PhaseRamp:
		if u >= ph.Duration {
			return ph.To
		}
		frac := float64(u) / float64(ph.Duration)
		return ph.From + float64((ph.To-ph.From)*frac) // rounded: no fused multiply-add
	case PhaseSine:
		// Starts at the trough, crests at Period/2: a diurnal curve.
		frac := float64(u%ph.Period) / float64(ph.Period)
		return ph.Min + float64((ph.Max-ph.Min)*0.5*(1-math.Cos(2*math.Pi*frac)))
	case PhaseBurst:
		if u%ph.Every < ph.Burst {
			return ph.Peak
		}
		return ph.Base
	}
	return 1
}

// validate checks the phase's shape for its kind.
func (ph *Phase) validate(i int) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario: phase.%d: %s", i+1, fmt.Sprintf(format, args...))
	}
	if ph.Duration <= 0 {
		return bad("duration must be positive")
	}
	inUnit := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return bad("%s=%g outside [0, 1]", name, v)
		}
		return nil
	}
	switch ph.Kind {
	case PhaseConstant:
		if err := inUnit("load", ph.Load); err != nil {
			return err
		}
	case PhaseRamp:
		if err := inUnit("from", ph.From); err != nil {
			return err
		}
		if err := inUnit("to", ph.To); err != nil {
			return err
		}
	case PhaseSine:
		if err := inUnit("min", ph.Min); err != nil {
			return err
		}
		if err := inUnit("max", ph.Max); err != nil {
			return err
		}
		if ph.Min > ph.Max {
			return bad("min=%g exceeds max=%g", ph.Min, ph.Max)
		}
		if ph.Period <= 0 {
			return bad("period must be positive")
		}
	case PhaseBurst:
		if err := inUnit("base", ph.Base); err != nil {
			return err
		}
		if err := inUnit("peak", ph.Peak); err != nil {
			return err
		}
		if ph.Burst <= 0 || ph.Every <= 0 || ph.Burst > ph.Every {
			return bad("need 0 < burst <= every")
		}
	default:
		return bad("unknown kind %q (constant, ramp, sine or burst)", ph.Kind)
	}
	if ph.Hotspot < 0 || ph.Hotspot >= 1 {
		return bad("hotspot=%g outside [0, 1)", ph.Hotspot)
	}
	return nil
}

// Spec is the parsed, canonical form of a scenario: the workload
// section plus the traffic timeline. An empty Timeline means constant
// full load with no drift — the trivial scenario, which behaves (and
// reproduces, byte for byte) exactly like the equivalent static
// configuration.
type Spec struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`

	// RecordCount is the table size (YCSB records / SmallBank
	// accounts); 0 defers to the run profile's default.
	RecordCount int `json:"record_count,omitempty"`
	// FieldCount and FieldLength shape YCSB records (cells per record
	// and bytes per cell; 0 = paper defaults).
	FieldCount  int `json:"field_count,omitempty"`
	FieldLength int `json:"field_length,omitempty"`
	// RecordsPerTxn is YCSB's N (0 = paper default 4).
	RecordsPerTxn int `json:"records_per_txn,omitempty"`

	// Operation proportions (YCSB only; must sum to 1).
	ReadProportion   float64 `json:"read_proportion,omitempty"`
	UpdateProportion float64 `json:"update_proportion,omitempty"`
	InsertProportion float64 `json:"insert_proportion,omitempty"`

	// Distribution is the request distribution: uniform, zipfian or
	// latest ("" = zipfian when Theta > 0, else uniform).
	Distribution string  `json:"request_distribution,omitempty"`
	Theta        float64 `json:"theta,omitempty"`
	// PreLoaded bounds the logically present prefix when inserts are
	// enabled (see the ycsb package).
	PreLoaded int `json:"pre_loaded,omitempty"`

	// Warehouses is the TPC-C contention knob.
	Warehouses int `json:"warehouses,omitempty"`

	// Resolution is the admission-decision grid (0 = 50µs).
	Resolution sim.Duration `json:"resolution_ns,omitempty"`

	Timeline []Phase `json:"timeline,omitempty"`
}

// Validate checks cross-field consistency. Parse calls it; specs
// constructed in Go should call it too.
func (s *Spec) Validate() error {
	switch s.Workload {
	case WLYCSB, WLSmallBank, WLTPCC:
	case "":
		return fmt.Errorf("scenario: workload not set")
	default:
		return fmt.Errorf("scenario: unknown workload %q (ycsb, smallbank or tpcc)", s.Workload)
	}
	switch s.Distribution {
	case "", "uniform", "zipfian":
	case "latest":
		if s.Workload != WLYCSB {
			return fmt.Errorf("scenario: the latest distribution needs the ycsb workload")
		}
	default:
		return fmt.Errorf("scenario: unknown requestdistribution %q (uniform, zipfian or latest)", s.Distribution)
	}
	if s.Workload != WLYCSB {
		if s.ReadProportion != 0 || s.UpdateProportion != 0 || s.InsertProportion != 0 {
			return fmt.Errorf("scenario: operation proportions apply to the ycsb workload only")
		}
		if s.Workload == WLTPCC && (s.Distribution != "" || s.Theta != 0) {
			return fmt.Errorf("scenario: tpcc has no request distribution knob")
		}
	} else if s.ReadProportion != 0 || s.UpdateProportion != 0 || s.InsertProportion != 0 {
		sum := s.ReadProportion + s.UpdateProportion + s.InsertProportion
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("scenario: operation proportions sum to %g, want 1", sum)
		}
		if s.ReadProportion < 0 || s.UpdateProportion < 0 || s.InsertProportion < 0 {
			return fmt.Errorf("scenario: negative operation proportion")
		}
	}
	if s.Theta < 0 {
		return fmt.Errorf("scenario: negative theta")
	}
	if s.RecordCount < 0 || s.RecordsPerTxn < 0 || s.Warehouses < 0 ||
		s.FieldCount < 0 || s.FieldLength < 0 || s.PreLoaded < 0 {
		return fmt.Errorf("scenario: negative count")
	}
	if s.Resolution < 0 {
		return fmt.Errorf("scenario: negative resolution")
	}
	for i := range s.Timeline {
		ph := &s.Timeline[i]
		if err := ph.validate(i); err != nil {
			return err
		}
		if ph.Hotspot != 0 && s.Workload == WLTPCC {
			return fmt.Errorf("scenario: phase.%d: hotspot drift needs a keyed workload (ycsb or smallbank)", i+1)
		}
	}
	return nil
}

// resolution returns the admission grid with the default applied.
func (s *Spec) resolution() sim.Duration {
	if s.Resolution > 0 {
		return s.Resolution
	}
	return DefaultResolution
}

// PhaseAt maps a virtual time to its phase index. Beyond the last
// boundary the final phase continues; an empty timeline returns -1.
func (s *Spec) PhaseAt(t sim.Time) int {
	if len(s.Timeline) == 0 {
		return -1
	}
	var start sim.Time
	for i := range s.Timeline {
		end := start.Add(s.Timeline[i].Duration)
		if t < end || i == len(s.Timeline)-1 {
			return i
		}
		start = end
	}
	return len(s.Timeline) - 1
}

// TimelineDuration is the sum of all phase durations.
func (s *Spec) TimelineDuration() sim.Duration {
	var d sim.Duration
	for i := range s.Timeline {
		d += s.Timeline[i].Duration
	}
	return d
}

// PhaseStart returns the timeline offset at which phase i begins.
func (s *Spec) PhaseStart(i int) sim.Time {
	var start sim.Time
	for j := 0; j < i && j < len(s.Timeline); j++ {
		start = start.Add(s.Timeline[j].Duration)
	}
	return start
}

// LoadAt evaluates the timeline's load fraction at virtual time t
// (1 when the timeline is empty).
func (s *Spec) LoadAt(t sim.Time) float64 {
	i := s.PhaseAt(t)
	if i < 0 {
		return 1
	}
	return s.Timeline[i].load(t.Sub(s.PhaseStart(i)))
}

// HotspotAt evaluates the drift offset (fraction of the key space) at
// virtual time t.
func (s *Spec) HotspotAt(t sim.Time) float64 {
	i := s.PhaseAt(t)
	if i < 0 {
		return 0
	}
	return s.Timeline[i].Hotspot
}

// active is the number of admitted coordinators at load fraction l.
func active(l float64, total int) int {
	if l <= 0 {
		return 0
	}
	n := int(math.Ceil(float64(l*float64(total)) - 1e-9))
	if n > total {
		n = total
	}
	return n
}

// Gate reports how long coordinator coord (0-based, of total) must
// wait at virtual time now before admitting its next transaction: 0
// admits immediately. Admission is by coordinator rank — coord is
// admitted iff coord < ceil(load×total) — so load modulation is a
// deterministic function of (spec, now, coord) with no randomness; a
// gated coordinator parks until the next decision point (phase
// boundary, burst edge, or resolution tick, whichever is next).
func (s *Spec) Gate(now sim.Time, coord, total int) sim.Duration {
	if len(s.Timeline) == 0 {
		return 0
	}
	if coord < active(s.LoadAt(now), total) {
		return 0
	}
	return s.nextDecision(now).Sub(now)
}

// nextDecision returns the earliest instant after now at which the
// admission set can change.
func (s *Spec) nextDecision(now sim.Time) sim.Time {
	res := s.resolution()
	next := now - now%sim.Time(res) + sim.Time(res)
	i := s.PhaseAt(now)
	ph := &s.Timeline[i]
	start := s.PhaseStart(i)
	if i < len(s.Timeline)-1 {
		if end := start.Add(ph.Duration); end < next {
			next = end
		}
	}
	if ph.Kind == PhaseBurst {
		// Burst edges are exact decision points so that bursts shorter
		// than the resolution grid are still honored.
		u := sim.Duration(now - start)
		pos := u % ph.Every
		var edge sim.Duration
		if pos < ph.Burst {
			edge = u - pos + ph.Burst
		} else {
			edge = u - pos + ph.Every
		}
		if e := start.Add(edge); e < next {
			next = e
		}
	}
	return next
}

// Canonical renders every field that influences a run in a fixed
// order — the input to Key and the equality the memoizing matrix
// relies on.
func (s *Spec) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wl=%s;rec=%d;fc=%d;fl=%d;n=%d;read=%.6f;upd=%.6f;ins=%.6f;dist=%s;theta=%.6f;pre=%d;wh=%d;res=%d",
		s.Workload, s.RecordCount, s.FieldCount, s.FieldLength, s.RecordsPerTxn,
		s.ReadProportion, s.UpdateProportion, s.InsertProportion,
		s.Distribution, s.Theta, s.PreLoaded, s.Warehouses, int64(s.Resolution))
	for i := range s.Timeline {
		ph := &s.Timeline[i]
		fmt.Fprintf(&b, ";p%d=%s,d%d,l%.6f,f%.6f,t%.6f,mn%.6f,mx%.6f,pd%d,b%.6f,pk%.6f,bl%d,ev%d,h%.6f",
			i+1, ph.Kind, int64(ph.Duration), ph.Load, ph.From, ph.To, ph.Min, ph.Max,
			int64(ph.Period), ph.Base, ph.Peak, int64(ph.Burst), int64(ph.Every), ph.Hotspot)
	}
	return b.String()
}

// Key is the scenario's hash-stable identity: the (sanitized) name
// plus a digest of the canonical form. Two specs with equal keys
// describe the same scenario, so matrix memoization dedupes across
// them.
func (s *Spec) Key() string {
	sum := sha256.Sum256([]byte(s.Canonical()))
	name := s.Name
	if name == "" {
		name = "scenario"
	}
	clean := make([]byte, 0, len(name))
	for _, c := range []byte(name) {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_':
			clean = append(clean, c)
		case c >= 'A' && c <= 'Z':
			clean = append(clean, c+'a'-'A')
		}
	}
	return fmt.Sprintf("%s@%s", clean, hex.EncodeToString(sum[:6]))
}
