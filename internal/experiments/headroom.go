package experiments

import (
	"fmt"
	"io"

	"repro/internal/policy"
	"repro/internal/sim"
)

// HeadroomResult reproduces the Section 3.1 headroom analysis: the
// clairvoyant ILP oracle against the state-of-the-art heuristic at a
// tight SSD quota. The paper reports the oracle achieving 5.06x the
// heuristic's cost savings.
type HeadroomResult struct {
	Cluster          string
	QuotaFrac        float64
	OracleTCOPct     float64
	HeuristicTCOPct  float64
	FirstFitTCOPct   float64
	OracleUpperBound float64 // oracle solver's own bound (diagnostic)
	Ratio            float64 // oracle / heuristic
}

// Headroom runs the oracle and heuristic baselines at a 1% quota.
func Headroom(opts Options) (*HeadroomResult, error) {
	env := BuildEnv(0, opts)
	const quotaFrac = 0.01
	quota := env.PeakUsage * quotaFrac

	heur := policy.NewHeuristic(env.Cost)
	heur.Prime(env.Train.Jobs)
	results, err := sim.RunAll(env.Test, []sim.Policy{heur, policy.FirstFit{}}, env.Cost,
		sim.Config{SSDQuota: quota})
	if err != nil {
		return nil, err
	}

	bounds, err := env.OracleBounds(quota)
	if err != nil {
		return nil, err
	}

	r := &HeadroomResult{
		Cluster:          env.Cluster,
		QuotaFrac:        quotaFrac,
		OracleTCOPct:     bounds[policy.NameOracleTCO].TCOSavingsPercent(),
		HeuristicTCOPct:  results[policy.NameHeuristic].TCOSavingsPercent(),
		FirstFitTCOPct:   results[policy.NameFirstFit].TCOSavingsPercent(),
		OracleUpperBound: bounds[policy.NameOracleTCO].TCOSaved,
	}
	if r.HeuristicTCOPct > 0 {
		r.Ratio = r.OracleTCOPct / r.HeuristicTCOPct
	}
	return r, nil
}

// Render writes the headroom summary.
func (r *HeadroomResult) Render(w io.Writer) {
	Table(w, "Headroom analysis (Section 3.1)",
		[]string{"method", "TCO savings %"},
		[][]string{
			{"Oracle TCO", fmt.Sprintf("%.3f", r.OracleTCOPct)},
			{"Heuristic", fmt.Sprintf("%.3f", r.HeuristicTCOPct)},
			{"FirstFit", fmt.Sprintf("%.3f", r.FirstFitTCOPct)},
		})
	fmt.Fprintf(w, "oracle/heuristic ratio: %.2fx (paper: 5.06x)\n", r.Ratio)
}
