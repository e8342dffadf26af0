package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The sample summaries the package keeps are Mean and Quantile; these
// two tests pin them on the cases the former Summarize tests covered.
func TestSummarizeBasic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Mean(xs); got != 3 {
		t.Errorf("Mean = %g, want 3", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("Median = %g, want 3", got)
	}
	// Summed left to right in float64, then divided once: the Fig 13
	// runtime means depend on the exact rounding.
	a, b, c := 0.1, 0.2, 0.3
	if got, want := Mean([]float64{a, b, c}), (a+b+c)/3; got != want {
		t.Errorf("Mean = %v, want %v", got, want)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean of empty sample = %g, want 0", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct {
		q, want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3.0, 20}, {-1, 10}, {2, 40},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty slice should be NaN")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantile mutated input: %v", xs)
	}
}

func TestQuantilesMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	qs := []float64{0.1, 0.25, 0.5, 0.75, 0.9}
	vals := Quantiles(xs, qs)
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			t.Fatalf("quantiles not monotone: %v", vals)
		}
	}
}

func TestAUCPerfectSeparation(t *testing.T) {
	labels := []bool{false, false, true, true}
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	if got := AUC(labels, scores); got != 1 {
		t.Errorf("AUC = %g, want 1", got)
	}
	// Inverted scores give AUC 0.
	inv := []float64{0.9, 0.8, 0.2, 0.1}
	if got := AUC(labels, inv); got != 0 {
		t.Errorf("inverted AUC = %g, want 0", got)
	}
}

func TestAUCRandomScoresNearHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 5000
	labels := make([]bool, n)
	scores := make([]float64, n)
	for i := range labels {
		labels[i] = rng.Float64() < 0.5
		scores[i] = rng.Float64()
	}
	got := AUC(labels, scores)
	if math.Abs(got-0.5) > 0.03 {
		t.Errorf("AUC of random scores = %g, want ~0.5", got)
	}
}

func TestAUCTies(t *testing.T) {
	// All scores identical: AUC should be exactly 0.5 via mid-ranks.
	labels := []bool{true, false, true, false}
	scores := []float64{1, 1, 1, 1}
	if got := AUC(labels, scores); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("AUC with all ties = %g, want 0.5", got)
	}
}

func TestAUCSingleClass(t *testing.T) {
	if got := AUC([]bool{true, true}, []float64{1, 2}); !math.IsNaN(got) {
		t.Errorf("AUC with one class = %g, want NaN", got)
	}
}

func TestAUCRangeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		labels := make([]bool, len(raw))
		scores := make([]float64, len(raw))
		hasPos, hasNeg := false, false
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			labels[i] = v > 0
			scores[i] = v * 3.7
			if labels[i] {
				hasPos = true
			} else {
				hasNeg = true
			}
		}
		if !hasPos || !hasNeg {
			return true
		}
		auc := AUC(labels, scores)
		return auc >= 0 && auc <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Errorf("Pearson = %g, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); math.Abs(got+1) > 1e-12 {
		t.Errorf("Pearson = %g, want -1", got)
	}
	if got := Pearson(xs, []float64{1, 1, 1, 1, 1}); !math.IsNaN(got) {
		t.Errorf("Pearson with constant = %g, want NaN", got)
	}
	if got := Pearson(xs, xs[:2]); !math.IsNaN(got) {
		t.Errorf("Pearson length mismatch = %g, want NaN", got)
	}
}
