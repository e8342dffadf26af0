package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cost"
)

// TestAdmitMonotoneInCategory: at any instant, if a category is
// admitted then every higher category is admitted too — the property
// that makes the threshold a *ranking* cutoff.
func TestAdmitMonotoneInCategory(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfg := DefaultAdaptiveConfig(15)
	cfg.DecisionIntervalSec = 50
	cfg.LookBackSec = 300
	a, err := NewAdaptive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := 0.0
	for step := 0; step < 500; step++ {
		now += rng.Float64() * 30
		// Random feedback to move the threshold around.
		spillFrac := 0.0
		spilledAt := -1.0
		if rng.Float64() < 0.4 {
			spillFrac = rng.Float64()
			spilledAt = now
		}
		a.Observe(now, now+rng.Float64()*600, rng.Float64() < 0.8, spilledAt, spillFrac, rng.Float64()*0.01)

		cat := rng.Intn(15)
		admitted := a.Admit(cat, now)
		if admitted {
			// All higher categories must also be admitted (ACT does
			// not change between these calls: same decision window).
			for higher := cat + 1; higher < 15; higher++ {
				if !a.Admit(higher, now) {
					t.Fatalf("category %d admitted but %d rejected at t=%g (ACT=%d)",
						cat, higher, now, a.ACT())
				}
			}
		}
	}
}

// TestACTAlwaysInRange: no feedback sequence can push the threshold
// outside [1, N-1].
func TestACTAlwaysInRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultAdaptiveConfig(8)
		cfg.DecisionIntervalSec = 10
		cfg.LookBackSec = 100
		a, err := NewAdaptive(cfg)
		if err != nil {
			return false
		}
		now := 0.0
		for i := 0; i < 200; i++ {
			now += rng.Float64() * 20
			spilledAt := -1.0
			spillFrac := 0.0
			if rng.Float64() < 0.5 {
				spilledAt = now
				spillFrac = rng.Float64()
			}
			a.Observe(now, now+rng.Float64()*500, rng.Float64() < 0.9, spilledAt, spillFrac, rng.Float64())
			a.Admit(rng.Intn(8), now)
			if a.ACT() < 1 || a.ACT() > 7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSpilloverPercentBounded: the estimator always returns a value in
// [0, 1] — spilled TCIO cannot exceed scheduled TCIO.
func TestSpilloverPercentBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultAdaptiveConfig(5)
		cfg.RecordTrace = true
		cfg.DecisionIntervalSec = 5
		cfg.LookBackSec = 200
		a, err := NewAdaptive(cfg)
		if err != nil {
			return false
		}
		now := 0.0
		for i := 0; i < 100; i++ {
			now += rng.Float64() * 10
			spilledAt := -1.0
			spillFrac := 0.0
			if rng.Float64() < 0.6 {
				// Spill can only start at or after arrival.
				spilledAt = now
				spillFrac = rng.Float64()
			}
			a.Observe(now, now+rng.Float64()*300+1, true, spilledAt, spillFrac, rng.Float64())
			a.Admit(2, now)
		}
		for _, p := range a.Trace() {
			if p.Spillover < -1e-12 || p.Spillover > 1+1e-12 || math.IsNaN(p.Spillover) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestLabelerPartitionProperty: for any (savings, density) pair the
// label is a total function into [0, N).
func TestLabelerPartitionProperty(t *testing.T) {
	l := &Labeler{NumCategories: 7, Boundaries: []float64{0.5, 2, 8, 32, 128}}
	f := func(savings, density float64) bool {
		if math.IsNaN(savings) || math.IsNaN(density) {
			return true
		}
		c := l.LabelValues(savings, density)
		if c < 0 || c >= 7 {
			return false
		}
		if savings < 0 && c != 0 {
			return false
		}
		if savings >= 0 && c == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLabelerSpacingVariants: all three spacings yield valid,
// monotone labelers on a generated workload.
func TestLabelerSpacingVariants(t *testing.T) {
	jobs := clusterJobs(t, 33, 1)
	cm := cost.Default()
	for _, spacing := range []Spacing{SpacingQuantile, SpacingLinear, SpacingLog} {
		l, err := FitLabelerSpacing(jobs, cm, 10, spacing)
		if err != nil {
			t.Fatalf("%v: %v", spacing, err)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("%v labeler invalid: %v", spacing, err)
		}
		prev := -1
		for _, d := range []float64{0, 1, 10, 100, 1e4, 1e6} {
			c := l.LabelValues(1, d)
			if c < prev {
				t.Fatalf("%v: label decreased with density", spacing)
			}
			prev = c
		}
	}
	if (SpacingQuantile).String() != "quantile" || (SpacingLinear).String() != "linear" || (SpacingLog).String() != "log" {
		t.Error("spacing strings wrong")
	}
}

// TestWindowModeOverlappingKeepsLongJobs: a long-lived old job is
// retained under overlapping semantics and dropped under start-within.
func TestWindowModeOverlappingKeepsLongJobs(t *testing.T) {
	for _, mode := range []WindowMode{WindowStartWithin, WindowOverlapping} {
		cfg := DefaultAdaptiveConfig(5)
		cfg.LookBackSec = 100
		cfg.DecisionIntervalSec = 10
		cfg.WindowMode = mode
		a, err := NewAdaptive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Job started at t=0, lives until t=10000.
		a.Observe(0, 10000, true, -1, 0, 0.01)
		// Update at t=500: window [400, 500].
		a.Admit(2, 500)
		want := 0
		if mode == WindowOverlapping {
			want = 1
		}
		if got := len(a.history); got != want {
			t.Errorf("mode %v retained %d observations, want %d", mode, got, want)
		}
	}
	if WindowStartWithin.String() != "start-within" || WindowOverlapping.String() != "overlapping" {
		t.Error("window mode strings wrong")
	}
}

// TestDeterministicTraining: identical seeds give identical models on
// the full pipeline.
func TestDeterministicTraining(t *testing.T) {
	jobs := clusterJobs(t, 34, 1)
	cm := cost.Default()
	opts := fastTrainOptions(5)
	opts.GBDT.NumRounds = 4
	m1, err := TrainCategoryModel(jobs, cm, opts)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := TrainCategoryModel(jobs, cm, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs[:100] {
		if m1.Predict(j) != m2.Predict(j) {
			t.Fatal("identical training runs disagree")
		}
	}
}
