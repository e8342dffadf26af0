package experiments

import "testing"

func TestDriftStaleVsRetrained(t *testing.T) {
	res := quick[*DriftResult](t, "drift")
	if len(res.Stale) != len(res.Quotas) {
		t.Fatal("curve length mismatch")
	}
	var stale, retrained, ff float64
	for i := range res.Quotas {
		stale += res.Stale[i]
		retrained += res.Retrained[i]
		ff += res.FirstFit[i]
	}
	// Retraining must not lose to the stale model overall, and the
	// stale model must stay serviceable (positive savings) — the
	// adaptive layer's robustness claim.
	if retrained < stale*0.9 {
		t.Errorf("retrained area %.3f well below stale %.3f", retrained, stale)
	}
	if stale <= 0 {
		t.Errorf("stale model area %.3f: adaptive layer failed to keep it serviceable", stale)
	}
	t.Logf("areas: stale=%.2f retrained=%.2f firstfit=%.2f", stale, retrained, ff)
}
