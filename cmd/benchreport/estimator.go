package main

import (
	"math"
	"slices"
)

// Estimators
// ==========
//
// Interference on a shared box only ever ADDS time, slowly and in bursts (see
// README "Why the quiet quartile"), so the across-round statistic that
// repeats best is not the median but the quartile on the undisturbed side of
// the distribution: the 25th percentile of per-round values for a
// lower-is-better metric, the 75th for a higher-is-better one. All ranks are
// nearest-rank (no interpolation), so every reported value is a value that
// was measured.

// rank returns the 1-based nearest-rank index of the q-quantile (0 < q <= 1)
// among n ascending values.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted latency slice, 0 when it is empty.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p/100)-1]
}

// quantile returns the nearest-rank q-quantile of values (any order).
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	return s[rank(len(s), q)-1]
}

// quietQuartile is the across-round estimator: the quartile on the side of
// the distribution that interference does not reach.
func quietQuartile(values []float64, higherIsBetter bool) float64 {
	if len(values) == 0 {
		return 0
	}
	if !higherIsBetter {
		return quantile(values, 0.25)
	}
	// The mirror image of the lower quartile: the rank(n, 0.25)-th value
	// counted from the top.
	s := slices.Clone(values)
	slices.Sort(s)
	return s[len(s)-rank(len(s), 0.25)]
}

func median(values []float64) float64 { return quantile(values, 0.5) }

// iqr is the distance between the nearest-rank third and first quartiles.
func iqr(values []float64) float64 {
	return quantile(values, 0.75) - quantile(values, 0.25)
}
