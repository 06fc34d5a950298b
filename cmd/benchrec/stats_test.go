package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		pct   float64
		value float64
	}{
		{20, 50, 10},  // 10 samples above the 10th
		{99, 50, 50},  // p90 would leave only 9 beyond
		{100, 90, 90}, // exactly 10 beyond the 90th
		{1000, 99, 990},
		{10000, 99.9, 9990},
		{19, 50, 10}, // too few for any percentile: the median
	} {
		pct, value, count := tail(seq(c.n))
		if pct != c.pct || value != c.value || count != c.n {
			t.Errorf("tail(%d samples) = p%g %g (n=%d), want p%g %g (n=%d)", c.n, pct, value, count, c.pct, c.value, c.n)
		}
	}
	if p, v, n := tail(nil); p != 0 || v != 0 || n != 0 {
		t.Errorf("tail(nil) = %g %g %d, want zeros", p, v, n)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %g, %g, want 1, 3", q1, q3)
	}
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median(1..4) = %g, want 2.5", m)
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("single-sample quartiles = %g, %g", q1, q3)
	}
}
