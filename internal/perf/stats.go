package perf

import (
	"math"
	"sort"
)

// tailPerMille are the candidates for a latency tail, ascending, in
// thousandths so the sample arithmetic stays exact.
var tailPerMille = []int{500, 900, 950, 990, 999}

// HighestPercentile returns the highest candidate percentile that a
// sample of n values supports: at least ten samples must lie beyond it.
// Below twenty samples not even the median qualifies and 50 is
// returned.
func HighestPercentile(n int) float64 {
	best := tailPerMille[0]
	for _, pm := range tailPerMille {
		if n*(1000-pm)/1000 >= 10 {
			best = pm
		}
	}
	return float64(best) / 10
}

// Percentile returns the nearest-rank p-th percentile of an ascending
// slice (0 for an empty one).
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Median returns the median of values without reordering them (0 for
// none).
func Median(values []float64) float64 {
	_, med, _ := Quartiles(values)
	return med
}

// Quartiles returns the first quartile, median and third quartile of
// values the way Python's statistics.quantiles(values, n=4) does (the
// "exclusive" method), which is the spread rule this benchmark is
// accepted under, without reordering them. A single value is its own
// quartiles.
func Quartiles(values []float64) (q1, med, q3 float64) {
	m := len(values)
	if m == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if m == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
