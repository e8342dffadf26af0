package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/policy"
)

func TestBuildEnvSplit(t *testing.T) {
	opts := QuickOptions()
	env := BuildEnv(0, opts)
	if len(env.Train.Jobs) == 0 || len(env.Test.Jobs) == 0 {
		t.Fatalf("empty split: %d/%d", len(env.Train.Jobs), len(env.Test.Jobs))
	}
	if env.PeakUsage <= 0 {
		t.Fatal("zero peak usage")
	}
	// Train jobs all precede test jobs.
	cut := opts.Days * 24 * 3600 / 2
	for _, j := range env.Train.Jobs {
		if j.ArrivalSec >= cut {
			t.Fatalf("train job at %g >= cut %g", j.ArrivalSec, cut)
		}
	}
	for _, j := range env.Test.Jobs {
		if j.ArrivalSec < cut {
			t.Fatalf("test job at %g < cut %g", j.ArrivalSec, cut)
		}
	}
}

func TestFig1Diversity(t *testing.T) {
	res := quick[*Fig1Result](t, "fig1")
	if len(res.Workloads) != 2 {
		t.Fatalf("workloads = %d", len(res.Workloads))
	}
	if ratio := res.DiversityRatio(); ratio < 10 {
		t.Errorf("diversity ratio = %.1f, want >= 10 (paper: orders of magnitude)", ratio)
	}
}

func TestHeadroomOracleDominates(t *testing.T) {
	res := quick[*HeadroomResult](t, "headroom")
	if res.OracleTCOPct <= res.HeuristicTCOPct {
		t.Errorf("oracle %.3f%% <= heuristic %.3f%%", res.OracleTCOPct, res.HeuristicTCOPct)
	}
	if res.OracleTCOPct <= res.FirstFitTCOPct {
		t.Errorf("oracle %.3f%% <= firstfit %.3f%%", res.OracleTCOPct, res.FirstFitTCOPct)
	}
	// The paper reports 5.06x headroom; shapes vary with the generator
	// but the oracle should clearly dominate.
	if res.Ratio < 1.2 {
		t.Errorf("oracle/heuristic ratio = %.2f, want >= 1.2", res.Ratio)
	}
}

func TestFig4OracleDensityPattern(t *testing.T) {
	res := quick[*Fig4Result](t, "fig4")
	if len(res.Quotas) != 3 {
		t.Fatalf("quotas = %d", len(res.Quotas))
	}
	for _, q := range res.Quotas {
		if q.NegativeAdmitted != 0 {
			t.Errorf("quota %.2f admitted %d negative-savings jobs", q.QuotaFrac, q.NegativeAdmitted)
		}
		// Densest quintile should be admitted at least as often as the
		// least dense one.
		if q.AdmitFracByDensityQuintile[4] < q.AdmitFracByDensityQuintile[0] {
			t.Errorf("quota %.2f: dense quintile %.2f < sparse %.2f",
				q.QuotaFrac, q.AdmitFracByDensityQuintile[4], q.AdmitFracByDensityQuintile[0])
		}
	}
	// Larger quotas admit more of the lower-density jobs.
	if res.Quotas[2].AdmitFracByDensityQuintile[1] < res.Quotas[0].AdmitFracByDensityQuintile[1] {
		t.Errorf("low-density admit fraction should grow with quota: %.2f -> %.2f",
			res.Quotas[0].AdmitFracByDensityQuintile[1], res.Quotas[2].AdmitFracByDensityQuintile[1])
	}
}

func TestFig6ClusterSweep(t *testing.T) {
	res := quick[*Fig6Result](t, "fig6")
	if len(res.Clusters) != 10 {
		t.Fatalf("clusters = %d", len(res.Clusters))
	}
	wins := 0
	for _, c := range res.Clusters {
		ours := c.TCOPct[policy.NameAdaptiveRanking]
		hash := c.TCOPct[policy.NameAdaptiveHash]
		if ours > hash {
			wins++
		}
	}
	if 3*wins < 2*len(res.Clusters) {
		t.Errorf("AdaptiveRanking beat AdaptiveHash on only %d/%d clusters", wins, len(res.Clusters))
	}
	_, max, mean := res.ImprovementStats()
	t.Logf("improvement over best baseline: max %.2fx mean %.2fx", max, mean)
}

func TestFig7QuotaSweepShape(t *testing.T) {
	res := quick[*Fig7Result](t, "fig7")
	oracleTCO := res.TCOPct[policy.NameOracleTCO]
	ranking := res.TCOPct[policy.NameAdaptiveRanking]
	hash := res.TCOPct[policy.NameAdaptiveHash]
	if len(oracleTCO) != len(res.Quotas) {
		t.Fatalf("oracle curve has %d points", len(oracleTCO))
	}
	// The oracle upper-bounds every method at every quota.
	for i := range res.Quotas {
		for _, m := range Fig7Methods {
			if m == policy.NameOracleTCO {
				continue
			}
			if res.TCOPct[m][i] > oracleTCO[i]+0.15 {
				t.Errorf("quota %.3f: %s (%.3f) exceeds oracle TCO (%.3f)",
					res.Quotas[i], m, res.TCOPct[m][i], oracleTCO[i])
			}
		}
	}
	// Our method dominates the non-ML ablation across the sweep.
	var rkSum, hashSum float64
	for i := range res.Quotas {
		rkSum += ranking[i]
		hashSum += hash[i]
	}
	if rkSum <= hashSum {
		t.Errorf("ranking area %.2f <= hash area %.2f", rkSum, hashSum)
	}
	// Oracle TCO at the largest quota should be near the theoretical
	// positive-savings ceiling and positive.
	if oracleTCO[len(oracleTCO)-1] <= 0 {
		t.Error("oracle TCO savings non-positive at full quota")
	}
}

func TestFig9aInferenceFast(t *testing.T) {
	res := quick[*Fig9aResult](t, "fig9a")
	if res.NumJobs == 0 {
		t.Fatal("no jobs timed")
	}
	// The paper's Python prototype took ~4ms/job; our Go inference must
	// be well under 1ms.
	if res.MeanMicros > 1000 {
		t.Errorf("mean inference = %.1f us, want < 1000", res.MeanMicros)
	}
	if res.ModelNumTrees == 0 {
		t.Error("model has no trees")
	}
}

func TestFig9bAccuracyCurve(t *testing.T) {
	res := quick[*Fig9bResult](t, "fig9b")
	if len(res.Sizes) < 3 {
		t.Fatalf("sizes = %d", len(res.Sizes))
	}
	for i, acc := range res.Accuracies {
		if acc < 1.0/15 {
			t.Errorf("size %d accuracy %.3f below chance", res.Sizes[i], acc)
		}
	}
}

func TestFig9cGroupImportance(t *testing.T) {
	res := quick[*Fig9cResult](t, "fig9c")
	if len(res.Groups) != 4 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
	// Normalization: importances per category sum to ~1 where any
	// signal exists.
	for c := range res.Categories {
		var sum float64
		for gi := range res.Groups {
			v := res.Importance[gi][c]
			if v < 0 || v > 1 {
				t.Fatalf("importance out of range: %g", v)
			}
			sum += v
		}
		if sum > 0 && (sum < 0.99 || sum > 1.01) {
			t.Errorf("category %d importance sums to %.3f", c, sum)
		}
	}
	// History (group A) should matter for density ranking categories
	// (the paper's headline finding for Fig 9c).
	if res.GroupMean("A") <= 0.05 {
		t.Errorf("group A mean importance = %.3f, want > 0.05", res.GroupMean("A"))
	}
}

func TestFig11TrueCategoryClose(t *testing.T) {
	res := quick[*Fig11Result](t, "fig11")
	if len(res.Predicted) != len(res.Quotas) {
		t.Fatal("curve length mismatch")
	}
	// The paper's point: predicted ~= true (diminishing returns from
	// accuracy). Allow a modest absolute gap.
	var predSum, trueSum float64
	for i := range res.Predicted {
		predSum += res.Predicted[i]
		trueSum += res.TrueCat[i]
	}
	if predSum < trueSum*0.6 {
		t.Errorf("predicted area %.2f far below true-category area %.2f", predSum, trueSum)
	}
	t.Logf("max gap: %.3f points", res.MaxGap())
}

func TestFig16Dynamics(t *testing.T) {
	res := quick[*Fig16Result](t, "fig16")
	if len(res.Series) != 4 {
		t.Fatalf("series = %d", len(res.Series))
	}
	// Tighter quotas must hold a higher average threshold.
	tight := res.Series[0].MeanACT() // 0.01% quota
	loose := res.Series[3].MeanACT() // 50% quota
	if tight <= loose {
		t.Errorf("mean ACT at 0.01%% quota (%.2f) <= at 50%% (%.2f)", tight, loose)
	}
	for _, s := range res.Series {
		if len(s.Points) == 0 {
			t.Errorf("quota %.4f recorded no controller decisions", s.QuotaFrac)
		}
	}
}

func TestTable4CategoryCount(t *testing.T) {
	res := quick[*Table4Result](t, "tab4")
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Accuracy decreases with N (coarser tasks are easier).
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Top1Acc > res.Rows[i-1].Top1Acc+0.05 {
			t.Errorf("accuracy rose from N=%d (%.2f) to N=%d (%.2f)",
				res.Rows[i-1].N, res.Rows[i-1].Top1Acc, res.Rows[i].N, res.Rows[i].Top1Acc)
		}
	}
	// N=2 accuracy should be the highest.
	if res.Rows[0].Top1Acc < res.Rows[2].Top1Acc {
		t.Errorf("N=2 accuracy %.2f below N=15 %.2f", res.Rows[0].Top1Acc, res.Rows[2].Top1Acc)
	}
}

func TestTableRender(t *testing.T) {
	var buf bytes.Buffer
	Table(&buf, "demo", []string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	out := buf.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "333") {
		t.Errorf("table output:\n%s", out)
	}
}
