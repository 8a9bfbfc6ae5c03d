package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// pctl is a percentile as reported: the value, the percentile actually
// used (it may be lower than asked for), and the sample count.
type pctl struct {
	Value float64
	P     float64
	N     int
}

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of xs.
// If fewer than minTail samples would lie beyond it, it reports the
// highest percentile that leaves minTail beyond; with minTail or fewer
// samples no percentile does, and it reports the median. xs is not
// modified.
func percentile(xs []float64, p float64) pctl {
	n := len(xs)
	if n == 0 {
		return pctl{Value: math.NaN(), P: p}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if maxP := float64(n-minTail) / float64(n); p > maxP {
		p = maxP
	}
	if p <= 0 {
		p = 0.5
	}
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return pctl{Value: s[rank-1], P: p, N: n}
}

func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
