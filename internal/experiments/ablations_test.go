package experiments

import "testing"

func TestGranularityAblation(t *testing.T) {
	res := quick[*GranularityResult](t, "granularity")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]GranularityRow{}
	for _, row := range res.Rows {
		byName[row.Granularity] = row
		if row.NumModels < 1 {
			t.Errorf("%s trained no models", row.Granularity)
		}
		if row.Accuracy <= 1.0/15 {
			t.Errorf("%s accuracy %.3f at or below chance", row.Granularity, row.Accuracy)
		}
		if row.TCOPctAt1 <= 0 {
			t.Errorf("%s no savings at 1%% quota", row.Granularity)
		}
	}
	if byName["per-cluster"].NumModels != 1 {
		t.Errorf("per-cluster models = %d", byName["per-cluster"].NumModels)
	}
	if byName["per-pipeline"].NumModels <= byName["per-user"].NumModels {
		t.Errorf("per-pipeline (%d) should be finer than per-user (%d)",
			byName["per-pipeline"].NumModels, byName["per-user"].NumModels)
	}
}

func TestLabelDesignAblation(t *testing.T) {
	res := quick[*LabelDesignResult](t, "labels")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]LabelDesignRow{}
	for _, row := range res.Rows {
		byName[row.Spacing] = row
	}
	q := byName["quantile"]
	lin := byName["linear"]
	lg := byName["log"]
	// The paper's core claim: quantile spacing balances the classes;
	// linear spacing is heavily imbalanced.
	if q.BalanceEntropy < 0.95 {
		t.Errorf("quantile balance entropy = %.3f, want ~1", q.BalanceEntropy)
	}
	if lin.BalanceEntropy >= q.BalanceEntropy {
		t.Errorf("linear entropy %.3f >= quantile %.3f: expected imbalance", lin.BalanceEntropy, q.BalanceEntropy)
	}
	// Quantile classes each hold ~1/(N-1) of the positives; linear
	// spacing concentrates a large share in one class.
	if lin.LargestClassFrac < 3*q.LargestClassFrac {
		t.Errorf("linear largest class %.2f not clearly above quantile %.2f",
			lin.LargestClassFrac, q.LargestClassFrac)
	}
	// Imbalanced labels inflate apparent accuracy (predict the big
	// class); sanity: linear's accuracy should not be below chance.
	if lg.Accuracy <= 0 || lin.Accuracy <= 0 {
		t.Error("degenerate accuracy")
	}
}

func TestWindowSemanticsAblation(t *testing.T) {
	res := quick[*WindowSemanticsResult](t, "window")
	if len(res.StartWithin) != len(res.Quotas) || len(res.Overlapping) != len(res.Quotas) {
		t.Fatal("curve lengths wrong")
	}
	var sw, ov float64
	for i := range res.Quotas {
		sw += res.StartWithin[i]
		ov += res.Overlapping[i]
	}
	// Both semantics must produce positive savings; the paper prefers
	// start-within, so it should not lose meaningfully overall.
	if sw <= 0 || ov <= 0 {
		t.Fatalf("degenerate savings: start-within %.3f, overlapping %.3f", sw, ov)
	}
	if sw < ov*0.85 {
		t.Errorf("start-within area %.3f clearly below overlapping %.3f", sw, ov)
	}
}
