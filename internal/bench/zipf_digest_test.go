package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"crest/internal/pin"
	"crest/internal/scenario"
	"crest/internal/workload"
)

// zipfTable is the (n, θ) of the Zipf table spec's workload builds
// under p; ok is false for a workload that draws no Zipf key.
func zipfTable(p Profile, spec RunSpec) (n int, theta float64, ok bool) {
	if sc := spec.Scenario; sc != nil {
		n, theta = sc.RecordCount, sc.Theta
		switch sc.Workload {
		case scenario.WLYCSB:
			if n == 0 {
				n = p.YCSBRecords
			}
			if theta == 0 && sc.Distribution != "" && sc.Distribution != "uniform" {
				theta = 0.99
			}
		case scenario.WLSmallBank:
			if n == 0 {
				n = p.SBAccounts
			}
		default:
			return 0, 0, false
		}
		return n, theta, theta > 0
	}
	switch spec.Workload.Kind {
	case WLYCSB:
		return p.YCSBRecords, spec.Workload.Theta, spec.Workload.Theta > 0
	case WLSmallBank:
		return p.SBAccounts, spec.Workload.Theta, spec.Workload.Theta > 0
	}
	return 0, 0, false
}

// TestZipfCDFDigests pins the bits of the Zipf CDF of every (n, θ) the
// quick and full profiles' experiments draw keys from, as the sha256 of
// its float64 words in testdata/zipf.digest. The CDF is built by pow
// and summation: an architecture that rounds either differently moves
// every key the workloads pick, and shows here first.
func TestZipfCDFDigests(t *testing.T) {
	got := map[string]string{}
	for _, p := range []Profile{Quick(), Full()} {
		for _, exp := range experiments {
			for _, spec := range exp.specs(p) {
				n, theta, ok := zipfTable(p, spec)
				name := fmt.Sprintf("n%d/theta%.4f", n, theta)
				if !ok || got[name] != "" {
					continue
				}
				h := sha256.New()
				var word [8]byte
				for _, v := range workload.NewZipf(uint64(n), theta).CDF() {
					binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
					h.Write(word[:])
				}
				got[name] = fmt.Sprintf("%.16x", h.Sum(nil))
			}
		}
	}
	pin.Rows(t, "testdata/zipf.digest", got)
}
