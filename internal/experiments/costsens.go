package experiments

import (
	"fmt"
	"io"

	"repro/internal/cost"
	"repro/internal/policy"
)

// CostSensitivityResult is the cost-model extension experiment: the
// paper notes that "the SSD wearout cost could differ in different
// contexts" and reports TCIO for that reason. Here we sweep the wear
// rate directly: as wear gets cheaper, more jobs become SSD-profitable
// and everyone's TCO savings rise; as it gets more expensive, the
// negative-savings class grows and importance ranking matters more.
// The BYOM pipeline (labels + model + controller) is retrained per
// rate, demonstrating that nothing in the stack is tied to one cost
// regime.
type CostSensitivityResult struct {
	Cluster   string
	QuotaFrac float64
	Rows      []CostSensitivityRow
}

// CostSensitivityRow is one wear-rate setting.
type CostSensitivityRow struct {
	WearMultiplier float64
	NegativeFrac   float64 // share of jobs with negative savings
	RankingTCO     float64
	FirstFitTCO    float64
	HeuristicTCO   float64
}

// CostSensitivity sweeps the SSD wear rate at a fixed 5% quota.
func CostSensitivity(opts Options) (*CostSensitivityResult, error) {
	base := BuildEnv(0, opts)
	res := &CostSensitivityResult{Cluster: base.Cluster, QuotaFrac: 0.05}
	for _, mult := range []float64{0.25, 0.5, 1, 2, 4} {
		rates := cost.DefaultRates()
		rates.SSDWearPerByteWritten *= mult
		cm := cost.NewModel(rates)
		env := &Env{
			Cluster:   base.Cluster,
			Train:     base.Train,
			Test:      base.Test,
			Cost:      cm,
			PeakUsage: base.PeakUsage,
		}
		neg := 0
		for _, j := range env.Test.Jobs {
			if cm.Savings(j) < 0 {
				neg++
			}
		}
		model, err := TrainModelOn(env.Train.Jobs, cm, opts)
		if err != nil {
			return nil, fmt.Errorf("wear x%g: %w", mult, err)
		}
		suite, err := env.RunSuite(env.PeakUsage*res.QuotaFrac, SuiteConfig{
			Methods: []string{policy.NameAdaptiveRanking, policy.NameFirstFit, policy.NameHeuristic}, Model: model,
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, CostSensitivityRow{
			WearMultiplier: mult,
			NegativeFrac:   float64(neg) / float64(len(env.Test.Jobs)),
			RankingTCO:     suite.TCOPercent(policy.NameAdaptiveRanking),
			FirstFitTCO:    suite.TCOPercent(policy.NameFirstFit),
			HeuristicTCO:   suite.TCOPercent(policy.NameHeuristic),
		})
	}
	return res, nil
}

// Render writes the wear sweep.
func (r *CostSensitivityResult) Render(w io.Writer) {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("x%.2f", row.WearMultiplier),
			fmt.Sprintf("%.2f", row.NegativeFrac),
			fmt.Sprintf("%.3f", row.RankingTCO),
			fmt.Sprintf("%.3f", row.FirstFitTCO),
			fmt.Sprintf("%.3f", row.HeuristicTCO),
		})
	}
	Table(w, fmt.Sprintf("Extension — SSD wear-rate sensitivity (quota %.0f%%)", r.QuotaFrac*100),
		[]string{"wear rate", "neg. frac", "ranking TCO%", "firstfit TCO%", "heuristic TCO%"}, rows)
}
