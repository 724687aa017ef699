package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of an ascending
// slice by linear interpolation between closest ranks; 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns v sorted ascending without touching v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the 50th percentile of v (v is not modified).
func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// mean returns the arithmetic mean of v; 0 for no samples.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quartiles returns the first quartile, median and third quartile of v
// exactly as Python's statistics.quantiles(v, n=4) computes them (the
// "exclusive" method) — the rule the acceptance driver applies to a
// result set, so `bench check` and the driver agree on a spread. It needs
// at least two values; with fewer all three equal the single value.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// windowMedian is the estimator every gated timing uses: the samples are
// split by window, each window contributes its own median, and the result
// is the median of those. One host stall lands in one window and moves
// one of the inner medians, not the reported value. Empty windows are
// skipped; n is the number of samples behind the estimate.
func windowMedian(windows [][]float64) (value float64, n int) {
	var meds []float64
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		meds = append(meds, median(w))
		n += len(w)
	}
	return median(meds), n
}
