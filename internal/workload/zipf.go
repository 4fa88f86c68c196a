package workload

import (
	"math"
	"math/rand"
	"sort"
)

// Zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^theta. Rank 0 is the hottest item.
//
// The paper's SmallBank and YCSB experiments sweep theta from 0.1 up
// to 1.22 (the value observed in production workloads), so the
// generator must handle theta ≥ 1, where the Gray et al. quick
// approximation breaks down. This implementation precomputes the CDF
// once and samples by binary search: exact for every theta, O(log n)
// per draw, and the table is shared per (n, theta).
type Zipf struct {
	n   uint64
	cdf []float64
}

// NewZipf builds a sampler over n items with exponent theta > 0.
func NewZipf(n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("workload: Zipf over zero items")
	}
	if theta <= 0 {
		panic("workload: Zipf theta must be positive (use uniform selection instead)")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := uint64(0); i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{n: n, cdf: cdf}
}

// Next draws one rank.
func (z *Zipf) Next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if z.cdf[i] == u && uint64(i)+1 < z.n {
		i++
	}
	return uint64(i)
}

// CDF returns the cumulative probability of each rank. The slice is the
// sampler's own: callers must not write to it.
func (z *Zipf) CDF() []float64 { return z.cdf }
