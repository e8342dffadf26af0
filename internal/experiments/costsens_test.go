package experiments

import "testing"

func TestCostSensitivity(t *testing.T) {
	res := quick[*CostSensitivityResult](t, "costsens")
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Negative-savings fraction grows monotonically with the wear rate.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].NegativeFrac < res.Rows[i-1].NegativeFrac-1e-9 {
			t.Errorf("negative fraction fell from %.3f to %.3f as wear rose",
				res.Rows[i-1].NegativeFrac, res.Rows[i].NegativeFrac)
		}
	}
	// Savings shrink as wear gets expensive (cheapest vs dearest wear).
	if res.Rows[0].RankingTCO <= res.Rows[len(res.Rows)-1].RankingTCO {
		t.Errorf("ranking savings did not shrink with wear: %.3f -> %.3f",
			res.Rows[0].RankingTCO, res.Rows[len(res.Rows)-1].RankingTCO)
	}
	// The retrained BYOM stack works (positive savings) in every regime.
	for _, row := range res.Rows {
		if row.RankingTCO <= 0 {
			t.Errorf("wear x%.2f: no savings", row.WearMultiplier)
		}
	}
}
