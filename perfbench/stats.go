package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
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

// minBeyond is how many samples must lie beyond a reported tail
// percentile, so that the tail rests on more than a couple of outliers.
const minBeyond = 10

// tailPercentile reports the highest percentile of xs that has at least
// minBeyond samples above it: the value at sorted index n-1-minBeyond,
// labelled as the percentile (index+1)/n. ok is false when xs holds too
// few samples for any such percentile; the tail is then omitted rather
// than reported from a handful of jobs.
func tailPercentile(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n < minBeyond+1 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 1 - minBeyond
	return s[k], 100 * float64(k+1) / float64(n), true
}

// mean returns the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
