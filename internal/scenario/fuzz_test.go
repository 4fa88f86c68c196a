package scenario

import (
	"strings"
	"testing"

	"crest/internal/sim"
)

// FuzzParse: a spec document is rejected with an error or yields a
// spec whose canonical form, key and timeline evaluate — never a panic
// and never a hang.
func FuzzParse(f *testing.F) {
	f.Add(DriftDemoText)
	f.Add(DriftDemoText[:len(DriftDemoText)/2])
	f.Add(`{"schema":"crest-why/v1","txns":[],"edges":[]}`)
	f.Add("workload=ycsb\nphase.1.kind=sine\nphase.1.duration=1ms\nphase.1.period=0s\n")
	f.Fuzz(func(t *testing.T, doc string) {
		s, err := Parse(strings.NewReader(doc), "fuzz")
		if err != nil {
			return
		}
		if s.Canonical() == "" || s.Key() == "" {
			t.Fatal("accepted spec has no canonical form")
		}
		end := sim.Time(s.TimelineDuration())
		for _, at := range []sim.Time{0, end / 3, end, end + 1} {
			s.PhaseAt(at)
			s.LoadAt(at)
			s.HotspotAt(at)
			s.Gate(at, 5, 12)
		}
	})
}
