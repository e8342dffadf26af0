package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/policy"
)

// Fig6Result reproduces Figure 6: TCO and TCIO savings across clusters
// at a fixed 1% SSD quota for the five deployable methods.
type Fig6Result struct {
	QuotaFrac float64
	Clusters  []Fig6Cluster
}

// Fig6Cluster holds one cluster's per-method savings.
type Fig6Cluster struct {
	Cluster string
	TCOPct  map[string]float64
	TCIOPct map[string]float64
}

// Fig6Methods lists the methods in the figure, in display order.
var Fig6Methods = []string{
	policy.NameAdaptiveRanking,
	policy.NameAdaptiveHash,
	policy.NameMLBaseline,
	policy.NameFirstFit,
	policy.NameHeuristic,
}

// Fig6 evaluates numClusters clusters at 1% quota.
func Fig6(opts Options, numClusters int) (*Fig6Result, error) {
	if numClusters < 1 {
		return nil, fmt.Errorf("experiments: fig6 needs at least 1 cluster")
	}
	res := &Fig6Result{QuotaFrac: 0.01, Clusters: make([]Fig6Cluster, numClusters)}
	err := par.Each(numClusters, 0, func(i int) error {
		env := BuildEnv(i, opts)
		model, err := env.TrainModel(opts)
		if err != nil {
			return fmt.Errorf("cluster %d: %w", i, err)
		}
		suite, err := env.RunSuite(env.PeakUsage*res.QuotaFrac, SuiteConfig{Methods: Fig6Methods, Model: model})
		if err != nil {
			return fmt.Errorf("cluster %d: %w", i, err)
		}
		fc := Fig6Cluster{Cluster: env.Cluster, TCOPct: map[string]float64{}, TCIOPct: map[string]float64{}}
		for _, m := range Fig6Methods {
			fc.TCOPct[m] = suite.TCOPercent(m)
			fc.TCIOPct[m] = suite.TCIOPercent(m)
		}
		res.Clusters[i] = fc
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ImprovementStats returns the per-cluster ratio of AdaptiveRanking to
// the best non-BYOM baseline, plus max and mean (the paper: up to
// 3.47x, 2.59x on average).
func (r *Fig6Result) ImprovementStats() (ratios []float64, max, mean float64) {
	for _, c := range r.Clusters {
		best := 0.0
		for _, m := range baselineMethods {
			if v := c.TCOPct[m]; v > best {
				best = v
			}
		}
		ours := c.TCOPct[policy.NameAdaptiveRanking]
		if best <= 0 {
			continue
		}
		ratio := ours / best
		ratios = append(ratios, ratio)
		if ratio > max {
			max = ratio
		}
		mean += ratio
	}
	if len(ratios) > 0 {
		mean /= float64(len(ratios))
	}
	return ratios, max, mean
}

// Render writes both savings tables.
func (r *Fig6Result) Render(w io.Writer) {
	header := append([]string{"cluster"}, Fig6Methods...)
	var tcoRows, tcioRows [][]string
	for _, c := range r.Clusters {
		tco := []string{c.Cluster}
		tcio := []string{c.Cluster}
		for _, m := range Fig6Methods {
			tco = append(tco, fmt.Sprintf("%.3f", c.TCOPct[m]))
			tcio = append(tcio, fmt.Sprintf("%.3f", c.TCIOPct[m]))
		}
		tcoRows = append(tcoRows, tco)
		tcioRows = append(tcioRows, tcio)
	}
	Table(w, fmt.Sprintf("Fig 6 — TCO savings %% per cluster (quota %.0f%%)", r.QuotaFrac*100), header, tcoRows)
	Table(w, fmt.Sprintf("Fig 6 — TCIO savings %% per cluster (quota %.0f%%)", r.QuotaFrac*100), header, tcioRows)
	_, max, mean := r.ImprovementStats()
	fmt.Fprintf(w, "AdaptiveRanking vs best baseline: max %.2fx, mean %.2fx (paper: 3.47x / 2.59x)\n", max, mean)
}

// Fig7Result reproduces Figure 7: TCO savings versus SSD quota for all
// seven methods, including both oracles.
type Fig7Result struct {
	Cluster string
	Quotas  []float64 // fractions of peak usage
	// TCOPct[method][i] is the savings at Quotas[i].
	TCOPct map[string][]float64
}

// Fig7Methods lists the methods of the quota sweep.
var Fig7Methods = []string{
	policy.NameAdaptiveRanking,
	policy.NameAdaptiveHash,
	policy.NameMLBaseline,
	policy.NameFirstFit,
	policy.NameHeuristic,
	policy.NameOracleTCO,
	policy.NameOracleTCIO,
}

// Fig7 sweeps the SSD quota on one cluster.
func Fig7(opts Options) (*Fig7Result, error) {
	env := BuildEnv(0, opts)
	model, err := env.TrainModel(opts)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{Cluster: env.Cluster, Quotas: QuotaFractions, TCOPct: map[string][]float64{}}
	for _, m := range Fig7Methods {
		res.TCOPct[m] = make([]float64, len(res.Quotas))
	}
	cats := model.Categories(env.Test.Jobs, nil)
	// Quota points run side by side, as in every sweep here: each writes
	// only its own index, and the trace, model and cost model are only
	// read.
	err = par.Each(len(res.Quotas), 0, func(i int) error {
		suite, err := env.RunSuite(env.PeakUsage*res.Quotas[i], SuiteConfig{
			Methods: Fig7Methods, Model: model, Categories: cats,
		})
		if err != nil {
			return fmt.Errorf("quota %.3f: %w", res.Quotas[i], err)
		}
		for _, m := range Fig7Methods {
			res.TCOPct[m][i] = suite.TCOPercent(m)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render writes the sweep as a method x quota table.
func (r *Fig7Result) Render(w io.Writer) {
	seriesTable(w, "Fig 7 — TCO savings % vs SSD quota, cluster "+r.Cluster, "method", r.Quotas, Fig7Methods, r.TCOPct)
}

// Fig11Result reproduces Figure 11: AdaptiveRanking with the trained
// model versus with ground-truth categories across quotas. The paper's
// insight: the two curves are close — model accuracy has diminishing
// returns beyond a point.
type Fig11Result struct {
	Cluster   string
	Quotas    []float64
	Predicted []float64
	TrueCat   []float64
}

// Fig11 runs the predicted-vs-true comparison.
func Fig11(opts Options) (*Fig11Result, error) {
	env := BuildEnv(0, opts)
	model, err := env.TrainModel(opts)
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{Cluster: env.Cluster, Quotas: QuotaFractions}
	res.Predicted = make([]float64, len(res.Quotas))
	res.TrueCat = make([]float64, len(res.Quotas))
	cats := model.Categories(env.Test.Jobs, nil)
	err = par.Each(len(res.Quotas), 0, func(i int) error {
		suite, err := env.RunSuite(env.PeakUsage*res.Quotas[i], SuiteConfig{
			Methods: []string{policy.NameAdaptiveRanking, policy.NameAdaptiveTrue}, Model: model, Categories: cats,
		})
		if err != nil {
			return err
		}
		res.Predicted[i] = suite.TCOPercent(policy.NameAdaptiveRanking)
		res.TrueCat[i] = suite.TCOPercent(policy.NameAdaptiveTrue)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// MaxGap returns the largest absolute gap between the curves.
func (r *Fig11Result) MaxGap() float64 {
	gap := 0.0
	for i := range r.Predicted {
		gap = max(gap, math.Abs(r.TrueCat[i]-r.Predicted[i]))
	}
	return gap
}

// Render writes both curves.
func (r *Fig11Result) Render(w io.Writer) {
	Table(w, "Fig 11 — predicted vs true category, cluster "+r.Cluster,
		[]string{"quota", "predicted", "true"}, quotaRows("%.1f%%", r.Quotas, r.Predicted, r.TrueCat))
	fmt.Fprintf(w, "max |gap|: %.3f points\n", r.MaxGap())
}

// Fig15Result reproduces Figure 15 (Appendix C.2): sensitivity of the
// adaptive algorithm's hyperparameters. For each quota it reports the
// min/max TCO savings across all 27 combinations of tolerance range,
// look-back window and decision interval.
type Fig15Result struct {
	Cluster string
	Quotas  []float64
	MinPct  []float64
	MaxPct  []float64
	Combos  int
}

// Fig15 sweeps the hyperparameter grid from the paper's appendix.
func Fig15(opts Options) (*Fig15Result, error) {
	env := BuildEnv(0, opts)
	model, err := env.TrainModel(opts)
	if err != nil {
		return nil, err
	}
	tolerances := [][2]float64{{0.005, 0.03}, {0.01, 0.15}, {0.05, 0.25}}
	lookbacks := []float64{600, 900, 1800}
	intervals := []float64{600, 900, 1800}

	quotas := []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1.0}
	res := &Fig15Result{Cluster: env.Cluster, Quotas: quotas}
	var combos []core.AdaptiveConfig
	for _, tol := range tolerances {
		for _, tw := range lookbacks {
			for _, tl := range intervals {
				acfg := core.DefaultAdaptiveConfig(model.NumCategories())
				acfg.SpilloverLow, acfg.SpilloverHigh = tol[0], tol[1]
				acfg.LookBackSec = tw
				acfg.DecisionIntervalSec = tl
				combos = append(combos, acfg)
			}
		}
	}
	res.Combos = len(combos)
	// One result matrix slot per (combo, quota); reduced serially.
	curves := make([][]float64, len(combos))
	cats := model.Categories(env.Test.Jobs, nil)
	err = par.Each(len(combos), 0, func(ci int) error {
		curve, err := env.rankingCurve(quotas, SuiteConfig{Model: model, Categories: cats, AdaptiveCfg: &combos[ci]})
		curves[ci] = curve
		return err
	})
	if err != nil {
		return nil, err
	}
	res.MinPct = append([]float64(nil), curves[0]...)
	res.MaxPct = append([]float64(nil), curves[0]...)
	for _, curve := range curves[1:] {
		for qi, v := range curve {
			res.MinPct[qi] = min(res.MinPct[qi], v)
			res.MaxPct[qi] = max(res.MaxPct[qi], v)
		}
	}
	return res, nil
}

// Render writes the sensitivity band.
func (r *Fig15Result) Render(w io.Writer) {
	Table(w, fmt.Sprintf("Fig 15 — sensitivity band over %d hyperparameter combos", r.Combos),
		[]string{"quota", "min TCO%", "max TCO%"}, quotaRows("%.0f%%", r.Quotas, r.MinPct, r.MaxPct))
}

// Table4Result reproduces Table 4 (Appendix C.2): end-to-end TCO
// savings and top-1 accuracy as the number of categories N varies.
type Table4Result struct {
	Cluster string
	Rows    []Table4Row
}

// Table4Row is one N setting.
type Table4Row struct {
	N           int
	TCOPct      float64
	Top1Acc     float64
	BestBasePct float64
}

// Table4 sweeps N at the paper's 0.1 quota setting. The baselines do
// not depend on N, so they run once.
func Table4(opts Options) (*Table4Result, error) {
	env := BuildEnv(0, opts)
	quotaFrac := []float64{0.1}
	base, err := env.RunSuite(env.PeakUsage*quotaFrac[0], SuiteConfig{Methods: baselineMethods})
	if err != nil {
		return nil, err
	}
	res := &Table4Result{Cluster: env.Cluster}
	for _, n := range []int{2, 5, 15, 25, 35} {
		nopts := opts
		nopts.NumCategories = n
		model, err := env.TrainModel(nopts)
		if err != nil {
			return nil, fmt.Errorf("N=%d: %w", n, err)
		}
		tco, err := env.rankingCurve(quotaFrac, SuiteConfig{Model: model})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table4Row{
			N:           n,
			TCOPct:      tco[0],
			Top1Acc:     model.Accuracy(env.Test.Jobs, env.Cost),
			BestBasePct: base.BestBaselineTCO(),
		})
	}
	return res, nil
}

// Render writes the table.
func (r *Table4Result) Render(w io.Writer) {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.N),
			fmt.Sprintf("%.3f", row.TCOPct),
			fmt.Sprintf("%.1f%%", row.Top1Acc*100),
			fmt.Sprintf("%.3f", row.BestBasePct),
		})
	}
	Table(w, "Table 4 — TCO savings and accuracy vs category count N (quota 10%)",
		[]string{"N", "TCO savings %", "top-1 acc", "best baseline %"}, rows)
}
