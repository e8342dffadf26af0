package experiments

import "testing"

func TestFig5PrototypeShape(t *testing.T) {
	res := quick[*Fig5Result](t, "fig5")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.NumShuffleJobs < 500 {
		t.Errorf("only %d shuffle jobs; the paper's prototype ran 1024", res.NumShuffleJobs)
	}
	for _, row := range res.Rows {
		if row.RankingTCO <= row.FirstFitTCO {
			t.Errorf("quota %.0f%%: AdaptiveRanking TCO %.3f <= FirstFit %.3f",
				row.QuotaFrac*100, row.RankingTCO, row.FirstFitTCO)
		}
		if row.RankingTCIO <= 0 {
			t.Errorf("quota %.0f%%: no TCIO savings", row.QuotaFrac*100)
		}
	}
	// AdaptiveRanking must clearly beat FirstFit at both quotas (the
	// paper reports 4.38x at 1% and 1.77x at 20%; our substrate's
	// advantage profile differs but the win must hold).
	for i, row := range res.Rows {
		if row.FirstFitTCO > 0 && row.RankingTCO/row.FirstFitTCO < 1.05 {
			t.Errorf("row %d: ratio %.2f, want > 1.05", i, row.RankingTCO/row.FirstFitTCO)
		}
	}
}

func TestFig8Generalization(t *testing.T) {
	res := quick[*Fig8Result](t, "fig8")
	home := res.TCOPct["train C0"]
	c3 := res.TCOPct["train C3"]
	c1 := res.TCOPct["train C1"]
	if len(home) != len(res.Quotas) || len(c3) != len(res.Quotas) {
		t.Fatal("curve lengths wrong")
	}
	var homeSum, c3Sum, c1Sum float64
	for i := range res.Quotas {
		homeSum += home[i]
		c3Sum += c3[i]
		c1Sum += c1[i]
	}
	// The pathological cluster's model must transfer worse than the
	// home model; a normal cluster's model should transfer reasonably.
	if c3Sum >= homeSum {
		t.Errorf("C3 (outlier) transfer area %.2f >= home area %.2f", c3Sum, homeSum)
	}
	if c1Sum < homeSum*0.5 {
		t.Errorf("C1 transfer area %.2f below half of home %.2f", c1Sum, homeSum)
	}
}

func TestFig10NewUsersAndPipelines(t *testing.T) {
	res := quick[*Fig10Result](t, "fig10")
	if len(res.Modes) != 2 {
		t.Fatalf("modes = %d", len(res.Modes))
	}
	for _, m := range res.Modes {
		if len(m.Clusters) == 0 {
			t.Fatalf("mode %s: no clusters", m.Mode)
		}
		// Leave-out training should track the full model closely: the
		// paper's curves nearly coincide. Allow generous slack since
		// quick-scale models are noisy.
		if gap := m.MaxRelativeGap(); gap > 0.8 {
			t.Errorf("mode %s: max relative gap %.2f too large", m.Mode, gap)
		}
	}
}

func TestFig13MixedWorkloads(t *testing.T) {
	res := quick[*Fig13Result](t, "fig13")
	if len(res.Rows) != 4 { // 2 quotas x 2 classes
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.RankingTCO < row.FirstFitTCO-0.5 {
			t.Errorf("quota %.0f%% class %s: ranking %.3f clearly below firstfit %.3f",
				row.QuotaFrac*100, row.Class, row.RankingTCO, row.FirstFitTCO)
		}
	}
	// Non-framework workloads must also see savings (BYOM generality).
	foundNFW := false
	for _, row := range res.Rows {
		if row.Class == "non-framework" && row.RankingTCO > 0 {
			foundNFW = true
		}
	}
	if !foundNFW {
		t.Error("no non-framework savings recorded")
	}
}

func TestFig14NoRegressions(t *testing.T) {
	res := quick[*Fig14Result](t, "fig14")
	if len(res.Rows) != 8 { // 2 quotas x 2 classes x 2 methods
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Paper: application-level performance improves, no regressions.
	// Allow a tiny tolerance for scheduling noise.
	if min := res.MinSavings(); min < -1 {
		t.Errorf("worst runtime savings %.2f%%: regression beyond tolerance", min)
	}
}

func TestFig15SensitivityBand(t *testing.T) {
	res := quick[*Fig15Result](t, "fig15")
	if res.Combos != 27 {
		t.Fatalf("combos = %d, want 27", res.Combos)
	}
	for i := range res.Quotas {
		if res.MinPct[i] > res.MaxPct[i] {
			t.Fatalf("band inverted at quota %.2f", res.Quotas[i])
		}
	}
	// Paper: "our solution is not sensitive" — the band should be
	// narrow relative to the achieved savings at mid quotas.
	mid := len(res.Quotas) / 2
	if res.MaxPct[mid] > 0 {
		width := res.MaxPct[mid] - res.MinPct[mid]
		if width > res.MaxPct[mid]*0.8 {
			t.Errorf("band width %.3f vs level %.3f: too sensitive", width, res.MaxPct[mid])
		}
	}
}
