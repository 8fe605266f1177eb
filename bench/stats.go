package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := math.Floor(pos)
	hi := math.Ceil(pos)
	return s[int(lo)] + (pos-lo)*(s[int(hi)]-s[int(lo)])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// pmax10 returns the highest percentile of xs that still has at least
// ten samples beyond it, and that percentile's rank (e.g. 99.5).
func pmax10(xs []float64) (value, pct float64) {
	n := len(xs)
	if n <= 10 {
		return percentile(xs, 50), 50
	}
	pct = 100 * float64(n-11) / float64(n-1)
	return percentile(xs, pct), pct
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so a spread
// computed here matches the one the acceptance driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		m := median(xs)
		return m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
