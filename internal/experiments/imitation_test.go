package experiments

import "testing"

func TestImitationEnvironmentBrittleness(t *testing.T) {
	res := quick[*ImitationResult](t, "imitation")
	// relativeAt is imitation/ranking at quota index i.
	relativeAt := func(i int) float64 {
		if res.Ranking[i] <= 0 {
			return 0
		}
		return res.Imitation[i] / res.Ranking[i]
	}
	if len(res.Imitation) != len(res.Quotas) {
		t.Fatal("curve length mismatch")
	}
	// Locate the training quota.
	trainIdx := -1
	for i, q := range res.Quotas {
		if q == res.TrainQuota {
			trainIdx = i
		}
	}
	if trainIdx < 0 {
		t.Fatal("training quota not in sweep")
	}
	for i, q := range res.Quotas {
		t.Logf("quota %5.1f%%: imitation %.3f ranking %.3f (rel %.2f)",
			q*100, res.Imitation[i], res.Ranking[i], relativeAt(i))
	}
	// The paper's argument: imitation bakes its training environment
	// into the model. It is competitive near the training quota but
	// cannot exploit environments with more capacity — its admissions
	// are capped at what the training-quota oracle admitted.
	relTrain := relativeAt(trainIdx)
	relWide := relativeAt(len(res.Quotas) - 1)
	if relTrain < 0.7 {
		t.Errorf("imitation should be competitive at its training quota, got %.2f", relTrain)
	}
	if relWide > 0.9 {
		t.Errorf("imitation should fall behind at abundant quota, got %.2f", relWide)
	}
}
