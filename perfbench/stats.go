package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie above a reported percentile: a
// tail percentile resting on fewer samples is mostly one outlier.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs, and
// ok only when at least minTail samples lie strictly beyond its rank.
// xs is sorted in place.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	r := int(math.Ceil(q * float64(n)))
	r = max(1, min(r, n))
	return xs[r-1], n-r >= minTail
}

// median is the middle value of xs (mean of the two middle values for
// an even count); xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
