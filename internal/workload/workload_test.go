package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// prob is the probability of rank i, read off the sampler's CDF.
func prob(z *Zipf, i uint64) float64 {
	cdf := z.CDF()
	if i == 0 {
		return cdf[0]
	}
	return cdf[i] - cdf[i-1]
}

func TestZipfProbabilitiesSumToOne(t *testing.T) {
	z := NewZipf(1000, 0.99)
	sum := 0.0
	for i := uint64(0); i < 1000; i++ {
		sum += prob(z, i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestZipfRankZeroHottest(t *testing.T) {
	for _, theta := range []float64{0.1, 0.99, 1.11, 1.22} {
		z := NewZipf(10000, theta)
		for i := uint64(1); i < 100; i++ {
			if prob(z, i) > prob(z, i-1)+1e-12 {
				t.Fatalf("theta=%v: P(%d) > P(%d)", theta, i, i-1)
			}
		}
	}
}

func TestZipfSkewGrowsWithTheta(t *testing.T) {
	frac := func(theta float64) float64 {
		z := NewZipf(100000, theta)
		rng := rand.New(rand.NewSource(1))
		hot := 0
		const draws = 20000
		for i := 0; i < draws; i++ {
			if z.Next(rng) < 100 {
				hot++
			}
		}
		return float64(hot) / draws
	}
	low, mid, high := frac(0.1), frac(0.99), frac(1.22)
	if !(low < mid && mid < high) {
		t.Fatalf("hot-key fraction not increasing: %.3f %.3f %.3f", low, mid, high)
	}
	if high < 0.5 {
		t.Fatalf("theta=1.22 hot fraction %.3f, expected majority on top-100", high)
	}
}

func TestZipfMatchesAnalyticalFrequency(t *testing.T) {
	z := NewZipf(1000, 0.99)
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, 1000)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Next(rng)]++
	}
	for _, rank := range []uint64{0, 1, 10, 100} {
		want := prob(z, rank)
		got := float64(counts[rank]) / draws
		if math.Abs(got-want) > 0.2*want+0.001 {
			t.Errorf("rank %d: empirical %.4f vs analytical %.4f", rank, got, want)
		}
	}
}

func TestQuickZipfInRange(t *testing.T) {
	f := func(seed int64, n uint16, thetaRaw uint8) bool {
		nn := uint64(n)%5000 + 1
		theta := 0.05 + float64(thetaRaw)/200.0 // 0.05 .. 1.325
		z := NewZipf(nn, theta)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			if z.Next(rng) >= nn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfBadArgsPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { NewZipf(0, 0.5) },
		func() { NewZipf(10, 0) },
		func() { NewZipf(10, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		}()
	}
}

func TestKeyPickerUniformCoversSpace(t *testing.T) {
	p := NewKeyPicker(64, 0)
	rng := rand.New(rand.NewSource(3))
	seen := map[uint64]bool{}
	for i := 0; i < 4000; i++ {
		k := uint64(p.Pick(rng))
		if k >= 64 {
			t.Fatalf("key %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) != 64 {
		t.Fatalf("uniform picker covered %d of 64 keys", len(seen))
	}
}

func TestKeyPickerScramblesHotKeys(t *testing.T) {
	// The two hottest ranks must not map to adjacent keys.
	p := NewKeyPicker(100000, 1.22)
	rng := rand.New(rand.NewSource(5))
	counts := map[uint64]int{}
	for i := 0; i < 50000; i++ {
		counts[uint64(p.Pick(rng))]++
	}
	var top1, top2 uint64
	for k, c := range counts {
		if c > counts[top1] {
			top1, top2 = k, top1
		} else if c > counts[top2] {
			top2 = k
		}
	}
	diff := int64(top1) - int64(top2)
	if diff < 0 {
		diff = -diff
	}
	if diff <= 1 {
		t.Fatalf("hottest keys adjacent: %d and %d", top1, top2)
	}
}

func TestKeyPickerDistinct(t *testing.T) {
	p := NewKeyPicker(10, 1.22)
	rng := rand.New(rand.NewSource(9))
	keys := p.PickDistinct(rng, 10)
	seen := map[uint64]bool{}
	for _, k := range keys {
		if seen[uint64(k)] {
			t.Fatalf("duplicate key %d", k)
		}
		seen[uint64(k)] = true
	}
}

func TestQuickScrambleIsPermutation(t *testing.T) {
	f := func(nRaw uint16) bool {
		n := uint64(nRaw)%500 + 2
		step := scrambleStep(n)
		seen := map[uint64]bool{}
		for r := uint64(0); r < n; r++ {
			k := (r*step + n/3) % n
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCellHelpers(t *testing.T) {
	b := U64(42, 27)
	if len(b) != 27 || GetU64(b) != 42 {
		t.Fatal("U64 round trip")
	}
	b2 := PutU64(b, 100)
	if GetU64(b2) != 100 || GetU64(b) != 42 {
		t.Fatal("PutU64 must not mutate input")
	}
	txt := Text(7, 20)
	if len(txt) != 20 {
		t.Fatal("Text length")
	}
	for _, c := range txt {
		if c < 'a' || c > 'z' {
			t.Fatal("Text not printable")
		}
	}
	if string(Text(7, 20)) != string(txt) {
		t.Fatal("Text not deterministic")
	}
}
