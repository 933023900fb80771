package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs
// and whether it may be reported: at least minTail samples must lie
// beyond it, so p90 needs 100 samples and p99 needs 1000.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	s := sorted(xs)
	return s[rank-1], n-rank >= minTail
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// printDist prints the quartiles and extremes of a sample.
func printDist(e *env, what string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	s := sorted(xs)
	q := func(p float64) float64 { return s[int(p*float64(len(s)-1))] }
	fmt.Fprintf(e.log, "  %-22s n=%-5d min %10.3f  q1 %10.3f  median %10.3f  q3 %10.3f  max %10.3f\n",
		what, len(s), s[0], q(0.25), median(s), q(0.75), s[len(s)-1])
}
