package workload

import (
	"math"
	"sort"
	"time"
)

// Rand is a self-contained splitmix64 PRNG. The open-loop generator pins its
// arrival times and key choices to this instead of math/rand so that a sweep
// is reproducible byte-for-byte from its seed across Go releases — math/rand's
// stream is only stable per release, and rand.NewZipf's rejection sampling
// consumes a data-dependent number of variates. splitmix64 is two multiplies
// and three xor-shifts per draw, passes BigCrush, and its output sequence is
// fixed by the algorithm, which lets the tests pin a golden sequence.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed int64) *Rand {
	return &Rand{state: uint64(seed)}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Zipf draws keys in [0, n) with popularity weight 1/(rank+1)^s. It inverts
// a precomputed CDF with a binary search — O(log n) per draw with no
// rejection, so the number of PRNG variates consumed per draw is fixed (one),
// keeping the arrival stream and the key stream independently reproducible.
// s = 0 degenerates to uniform.
type Zipf struct {
	r   *Rand
	cdf []float64
}

// NewZipf builds a zipfian sampler over n keys with exponent s >= 0.
func NewZipf(r *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("workload: Zipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // defend against rounding leaving the last bucket short
	return &Zipf{r: r, cdf: cdf}
}

// Next returns the next key index in [0, n).
func (z *Zipf) Next() int {
	u := z.r.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Arrivals generates the inter-arrival gaps of an open-loop schedule at a
// target offered rate. Poisson mode draws exponential gaps (what a large
// population of independent clients produces); fixed mode emits a perfectly
// paced constant gap (useful for pinning CI scenarios where the offered
// count must be exact).
type Arrivals struct {
	r        *Rand
	interval float64 // mean gap in nanoseconds
	poisson  bool
}

// NewArrivals returns an arrival source at rate ops/sec. rate must be
// positive.
func NewArrivals(r *Rand, rate float64, poisson bool) *Arrivals {
	if rate <= 0 {
		panic("workload: NewArrivals with non-positive rate")
	}
	return &Arrivals{r: r, interval: 1e9 / rate, poisson: poisson}
}

// Next returns the gap to the next intended arrival.
func (a *Arrivals) Next() time.Duration {
	if !a.poisson {
		return time.Duration(a.interval)
	}
	// -ln(1-U) with U in [0,1) keeps the argument in (0,1], avoiding ln(0).
	return time.Duration(-math.Log(1-a.r.Float64()) * a.interval)
}
