package workload

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestZipfHighThetaProperties exercises the regime the Gray et al.
// quick approximation gets wrong (theta ≥ 1, up to the paper's
// production-observed 1.22 and beyond): the CDF must stay monotonic
// and end at 1, every draw must stay in range, and the sampled head
// mass must match the analytic P(0).
func TestZipfHighThetaProperties(t *testing.T) {
	check := func(seed int64, nRaw uint16, thetaRaw uint8) bool {
		n := uint64(nRaw)%5000 + 2             // [2, 5001]
		theta := 1 + float64(thetaRaw%200)/100 // [1.00, 2.99]
		z := NewZipf(n, theta)

		prev := 0.0
		for i := uint64(0); i < n; i++ {
			if z.cdf[i] < prev {
				t.Logf("n=%d theta=%.2f: cdf decreases at %d", n, theta, i)
				return false
			}
			prev = z.cdf[i]
		}
		if z.cdf[n-1] != 1 {
			t.Logf("n=%d theta=%.2f: cdf ends at %v", n, theta, z.cdf[n-1])
			return false
		}

		rng := rand.New(rand.NewSource(seed))
		const draws = 20000
		head := 0
		for i := 0; i < draws; i++ {
			r := z.Next(rng)
			if r >= n {
				t.Logf("n=%d theta=%.2f: drew out-of-range rank %d", n, theta, r)
				return false
			}
			if r == 0 {
				head++
			}
		}
		// With theta ≥ 1 the head holds a large share (P(0) ≥ 1/H_n),
		// so 20k draws estimate it tightly; allow ±25% relative slack.
		want := prob(z, 0)
		got := float64(head) / draws
		if got < 0.75*want || got > 1.25*want {
			t.Logf("n=%d theta=%.2f: head mass %.4f, want ≈ %.4f", n, theta, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
