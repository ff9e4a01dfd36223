package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// bruteQuantile is the reference: nearest-rank on a fully sorted sample set.
func bruteQuantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// checkQuantiles asserts the histogram's quantiles against a brute-force
// sort of the same samples: never under-reported, and over-reported by at
// most the bucket width (1/32 relative) plus 1ns.
func checkQuantiles(t *testing.T, h *Histogram, samples []int64) {
	t.Helper()
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
		exact := bruteQuantile(sorted, q)
		got := int64(h.Quantile(q))
		if got < exact {
			t.Errorf("q=%g: histogram %d under-reports exact %d", q, got, exact)
		}
		slack := exact/32 + 1
		if got > exact+slack {
			t.Errorf("q=%g: histogram %d exceeds exact %d by more than bucket width (slack %d)", q, got, exact, slack)
		}
	}
}

func TestHistogramQuantilesVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Log-uniform samples spanning 1ns..10s — exercises many octaves,
	// including the exact small-value buckets.
	const n = 20000
	samples := make([]int64, 0, n)
	h := NewHistogram()
	for i := 0; i < n; i++ {
		v := int64(math.Exp(rng.Float64() * math.Log(1e10)))
		samples = append(samples, v)
		h.Record(time.Duration(v))
	}
	if h.Count() != n {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}
	checkQuantiles(t, h, samples)
}

func TestHistogramHeavyTail(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// A latency-shaped distribution: tight body around 100µs with a 1%
	// tail two orders of magnitude slower. p999 must track the tail.
	const n = 50000
	samples := make([]int64, 0, n)
	h := NewHistogram()
	for i := 0; i < n; i++ {
		var v int64
		if rng.Float64() < 0.01 {
			v = int64(5e6 + rng.Float64()*2e7)
		} else {
			v = int64(8e4 + rng.Float64()*4e4)
		}
		samples = append(samples, v)
		h.Record(time.Duration(v))
	}
	checkQuantiles(t, h, samples)
	if p999 := h.Quantile(0.999); p999 < 5*time.Millisecond {
		t.Fatalf("p999 = %v lost the tail (want >= 5ms)", p999)
	}
}

func TestHistogramMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 16384
	single := NewHistogram()
	parts := []*Histogram{NewHistogram(), NewHistogram(), NewHistogram(), NewHistogram()}
	for i := 0; i < n; i++ {
		v := time.Duration(rng.Int63n(int64(time.Second)))
		single.Record(v)
		parts[i%len(parts)].Record(v)
	}
	merged := NewHistogram()
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Count() != single.Count() {
		t.Fatalf("merged count %d != single count %d", merged.Count(), single.Count())
	}
	if merged.Min() != single.Min() || merged.Max() != single.Max() {
		t.Fatalf("merged min/max %v/%v != single %v/%v", merged.Min(), merged.Max(), single.Min(), single.Max())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		if merged.Quantile(q) != single.Quantile(q) {
			t.Errorf("q=%g: merged %v != single %v", q, merged.Quantile(q), single.Quantile(q))
		}
	}
	// Merging an empty or nil histogram is a no-op.
	before := merged.Quantile(0.99)
	merged.Merge(nil)
	merged.Merge(NewHistogram())
	if merged.Quantile(0.99) != before {
		t.Fatal("merging empty histograms changed quantiles")
	}
}

func TestHistogramAtRank(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 10; i++ {
		h.Record(time.Duration(i)) // 1..10ns land in exact buckets
	}
	for r := uint64(1); r <= 10; r++ {
		if got := h.AtRank(r); got != time.Duration(r) {
			t.Errorf("AtRank(%d) = %v, want %dns", r, got, r)
		}
	}
	if got := h.AtRank(0); got != 1 {
		t.Errorf("AtRank(0) should clamp to rank 1, got %v", got)
	}
	if got := h.AtRank(100); got != 10 {
		t.Errorf("AtRank(100) should clamp to rank Count, got %v", got)
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.99) != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Record(-time.Second) // clamps to zero
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative sample should clamp to 0: min=%v max=%v n=%d", h.Min(), h.Max(), h.Count())
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	// Every probe value must land in a bucket whose upper bound is >= the
	// value and within 1/32 relative width of it.
	probes := []int64{0, 1, 31, 32, 33, 63, 64, 1000, 1 << 20, (1 << 40) - 1, 1 << 40, math.MaxInt64}
	for _, v := range probes {
		b := bucketOf(v)
		up := bucketUpper(b)
		if up < v {
			t.Errorf("value %d: bucket upper %d below value", v, up)
		}
		if up-v > v/32+1 {
			t.Errorf("value %d: bucket upper %d too wide", v, up)
		}
	}
}

func TestHistogramString(t *testing.T) {
	// Each sample is the top of its bucket, so every quantile is exact.
	const a, b, c = 1<<20 - 1, 1<<21 - 1, 1<<22 - 1
	tests := []struct {
		name    string
		samples []time.Duration
		want    string
	}{
		{"empty", nil, "no samples"},
		{"one sample", []time.Duration{a}, "n=1 mean=1.049ms p50=1.049ms p99=1.049ms p999=1.049ms max=1.049ms"},
		{"three samples", []time.Duration{c, a, b}, "n=3 mean=2.447ms p50=2.097ms p99=4.194ms p999=4.194ms max=4.194ms"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := NewHistogram()
			for _, d := range tt.samples {
				h.Record(d)
			}
			if got := h.String(); got != tt.want {
				t.Errorf("String() = %q, want %q", got, tt.want)
			}
		})
	}
}
