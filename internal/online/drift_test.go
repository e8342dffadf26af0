package online

import (
	"math"
	"testing"
)

func TestTotalVariation(t *testing.T) {
	cases := []struct {
		p, q []float64
		want float64
	}{
		{[]float64{1, 0}, []float64{1, 0}, 0},
		{[]float64{1, 0}, []float64{0, 1}, 1},
		{[]float64{0.5, 0.5}, []float64{0.25, 0.75}, 0.25},
		// Mismatched supports: missing mass counts fully.
		{[]float64{1}, []float64{0, 1}, 1},
	}
	for _, c := range cases {
		if got := totalVariation(c.p, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("totalVariation(%v, %v) = %g, want %g", c.p, c.q, got, c.want)
		}
	}
}

func TestDriftDetectorArmsThenFires(t *testing.T) {
	d := driftDetector{tv: 0.3}

	// The first check arms the reference without firing.
	if d.shifted([]float64{1, 0}) {
		t.Error("fired while arming")
	}
	if d.ref == nil {
		t.Error("first check did not arm the reference")
	}
	// Small shift stays quiet; large shift fires.
	if d.shifted([]float64{0.9, 0.1}) {
		t.Error("fired at TV=0.1 with threshold 0.3")
	}
	if !d.shifted([]float64{0.2, 0.8}) {
		t.Error("did not fire at TV=0.8")
	}
	// Re-arming at the new distribution silences it again.
	d.arm([]float64{0.2, 0.8})
	if d.shifted([]float64{0.2, 0.8}) {
		t.Error("fired right after re-arm")
	}
}

func TestDriftDetectorDisabled(t *testing.T) {
	d := driftDetector{}
	if d.shifted([]float64{1, 0}) {
		t.Error("disabled detector fired")
	}
}
