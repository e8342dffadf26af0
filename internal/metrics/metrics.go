// Package metrics provides small statistical helpers shared by the
// simulator, the model-analysis experiments and the benchmark harness —
// mean, quantiles, AUC and Pearson correlation — and the snapshot type of
// the serving core's counters. The counters themselves are plain fields
// of serve.Server, guarded by the lock its controller is already under.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, summed left to right, or 0
// for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It copies and sorts the input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted is like Quantile but assumes xs is already sorted
// ascending, avoiding the copy.
func QuantileSorted(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// Quantiles returns the values of xs at each of the requested quantile
// points. xs is copied and sorted once.
func Quantiles(xs []float64, qs []float64) []float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = QuantileSorted(sorted, q)
	}
	return out
}

// AUC computes the area under the ROC curve for binary labels and
// real-valued scores (higher score = more likely positive). Ties are
// handled by assigning mid-ranks. Returns NaN when only one class is
// present.
func AUC(labels []bool, scores []float64) float64 {
	if len(labels) != len(scores) {
		panic(fmt.Sprintf("metrics: AUC length mismatch %d != %d", len(labels), len(scores)))
	}
	n := len(labels)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })

	// Assign mid-ranks to tied scores.
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j < n && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		mid := float64(i+j-1)/2 + 1 // 1-based mid-rank
		for k := i; k < j; k++ {
			ranks[idx[k]] = mid
		}
		i = j
	}
	var nPos, nNeg int
	var sumPosRank float64
	for i, lab := range labels {
		if lab {
			nPos++
			sumPosRank += ranks[i]
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return math.NaN()
	}
	u := sumPosRank - float64(nPos)*float64(nPos+1)/2
	return u / (float64(nPos) * float64(nNeg))
}

// Pearson computes the Pearson correlation coefficient between xs and ys.
// Returns NaN for degenerate inputs.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return math.NaN()
	}
	n := float64(len(xs))
	var sx, sy, sxx, syy, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		syy += ys[i] * ys[i]
		sxy += xs[i] * ys[i]
	}
	cov := sxy/n - sx/n*sy/n
	vx := sxx/n - sx/n*sx/n
	vy := syy/n - sy/n*sy/n
	if vx <= 0 || vy <= 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(vx*vy)
}
