package experiments

import (
	"fmt"
	"io"

	"repro/internal/policy"
	"repro/internal/sim"
)

// ImitationResult reproduces the paper's Section 4 motivating argument
// against end-to-end imitation learning: a model trained to imitate the
// oracle's decisions at one SSD capacity bakes that environment into
// its weights. Across an online quota sweep, the imitation policy only
// performs near its training quota, while the BYOM split (environment-
// independent hints + adaptive storage-layer algorithm) tracks every
// quota.
type ImitationResult struct {
	Cluster    string
	TrainQuota float64 // fraction of peak the oracle labels used
	Quotas     []float64
	Imitation  []float64
	Ranking    []float64
}

// Imitation trains the imitation baseline at a 10% quota and sweeps.
func Imitation(opts Options) (*ImitationResult, error) {
	env := BuildEnv(0, opts)
	const trainFrac = 0.10
	trainPeak := env.Train.PeakSSDUsage()

	imit, err := policy.TrainImitation(env.Train.Jobs, trainPeak*trainFrac, env.Cost, opts.trainOptions().GBDT)
	if err != nil {
		return nil, err
	}
	model, err := env.TrainModel(opts)
	if err != nil {
		return nil, err
	}

	res := &ImitationResult{
		Cluster:    env.Cluster,
		TrainQuota: trainFrac,
		Quotas:     []float64{0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0},
	}
	if res.Ranking, err = env.rankingCurve(res.Quotas, SuiteConfig{Model: model}); err != nil {
		return nil, err
	}
	for _, frac := range res.Quotas {
		ir, err := sim.Run(env.Test, imit, env.Cost, sim.Config{SSDQuota: env.PeakUsage * frac})
		if err != nil {
			return nil, err
		}
		res.Imitation = append(res.Imitation, ir.TCOSavingsPercent())
	}
	return res, nil
}

// Render writes the comparison.
func (r *ImitationResult) Render(w io.Writer) {
	rows := quotaRows("%.1f%%", r.Quotas, r.Imitation, r.Ranking)
	for i, q := range r.Quotas {
		if q == r.TrainQuota {
			rows[i][2] += " <- imitation trained here"
		}
	}
	Table(w, "Extension — imitation learning vs BYOM across quotas (§4)",
		[]string{"quota", "imitation TCO%", "adaptive ranking TCO%"}, rows)
	fmt.Fprintf(w, "imitation was trained against oracle labels at a %.0f%% quota\n", r.TrainQuota*100)
}
