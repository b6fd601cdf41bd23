package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of the samples by
// the nearest-rank method, or NaN without samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (no attempts means no misses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
