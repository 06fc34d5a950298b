package main

import "sort"

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the same rule as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so the
// spreads this tool reports match the ones the acceptance check computes.
// With fewer than two samples both quartiles are the single value (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// tailLadder is the set of percentiles a tail is reported at, in per mille
// so that sample counts are exact integer arithmetic.
var tailLadder = []int{999, 990, 900, 500}

// tail returns the highest percentile of tailLadder that has at least ten
// samples beyond it, the value at that percentile (nearest rank) and the
// sample count. Below 20 samples no percentile qualifies and the median is
// reported at p50.
func tail(xs []float64) (pct, value float64, count int) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := sorted(xs)
	for _, pm := range tailLadder {
		rank := (pm*n + 999) / 1000 // ceil(pm/1000 * n)
		if n-rank >= 10 {
			return float64(pm) / 10, s[rank-1], n
		}
	}
	return 50, median(xs), n
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
