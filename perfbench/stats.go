package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-th percentile (0 < q < 100) of sorted by the
// nearest-rank rule, and how many samples rank above it.
func nearestRank(sorted []float64, q float64) (value float64, beyond int) {
	idx := int(math.Ceil(q/100*float64(len(sorted))-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx], len(sorted) - 1 - idx
}

// tailPercentiles are the candidate percentiles for the reported tail, in
// ascending order: every whole percentile from the median up, then 99.9.
var tailPercentiles = func() []float64 {
	var qs []float64
	for q := 50; q <= 99; q++ {
		qs = append(qs, float64(q))
	}
	return append(qs, 99.9)
}()

// minBeyond is how many samples must rank above the reported tail, so the
// tail is never one or two outliers.
const minBeyond = 10

// tail returns the highest candidate percentile of xs that has at least
// minBeyond samples above it, its value and the sample count. ok is false
// when xs is too small for even the median to qualify.
func tail(xs []float64) (q, value float64, n int, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i := len(tailPercentiles) - 1; i >= 0; i-- {
		if len(s) == 0 {
			break
		}
		v, beyond := nearestRank(s, tailPercentiles[i])
		if beyond >= minBeyond {
			return tailPercentiles[i], v, len(s), true
		}
	}
	return 0, 0, len(s), false
}

// frac is num/den, 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
