package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DriftResult is the workload-evolution extension experiment motivated
// by Section 2.3: "workloads exhibit significantly faster rates of
// change than the update cycles of storage systems" and "a static model
// cannot adapt to evolving workload patterns". We splice two cluster
// segments with different application mixes (users and pipelines change
// across the splice) and compare:
//
//   - stale: a model trained on the pre-drift segment only;
//   - retrained: a model retrained on the post-drift warmup (the BYOM
//     release path — the workload republishes at its own velocity);
//   - FirstFit, as the model-free floor.
//
// The paper's design predictions: the adaptive algorithm keeps even the
// stale model serviceable (hints generalize via metadata tokens and the
// controller corrects volume), and retraining recovers most of the gap.
type DriftResult struct {
	Quotas    []float64
	Stale     []float64
	Retrained []float64
	FirstFit  []float64
	// Eval set sizes (diagnostics).
	PreJobs, PostJobs int
}

// DriftScenario is the spliced workload-evolution environment, shared
// by the offline Drift experiment and the online-learning end-to-end
// test (internal/online): a cluster whose application mix changes
// abruptly at SpliceSec.
type DriftScenario struct {
	// Pre is the pre-drift cluster environment; models that must go
	// stale train on Pre.Train.
	Pre *Env
	// Warmup is the first half of the post-drift segment (what an
	// offline retrain gets to see); Eval is the remainder.
	Warmup, Eval *trace.Trace
	// Replay is the full serving stream: the pre-drift test half
	// followed contiguously by the whole post-drift segment. Replaying
	// it through the online loop exercises stable traffic first, then
	// the drift.
	Replay *trace.Trace
	// SpliceSec is the virtual time at which the mix changes.
	SpliceSec float64
}

// BuildDriftScenario splices cluster 0's mix (pre-drift) with cluster
// 5's mix (post-drift: different archetype weights, users and
// pipelines), the §2.3 "workloads evolve faster than storage systems"
// scenario.
func BuildDriftScenario(opts Options) (*DriftScenario, error) {
	pre := BuildEnv(0, opts)
	postOpts := opts
	postOpts.Seed = opts.Seed + 500
	post := BuildEnv(5, postOpts)

	offset := opts.Days * 24 * 3600
	postFull := &trace.Trace{Cluster: "drift"}
	postFull.Jobs = append(postFull.Jobs, post.Train.Jobs...)
	postFull.Jobs = append(postFull.Jobs, post.Test.Jobs...)
	postFull.Shift(offset)
	postFull.Sort()

	// Warmup (first half of the post segment) is what the retrained
	// model sees; evaluation runs on the remainder.
	cut := offset + opts.Days*24*3600/2
	warmup, eval := postFull.SplitAt(cut)
	if len(warmup.Jobs) < 100 || len(eval.Jobs) < 100 {
		return nil, fmt.Errorf("experiments: drift segments too small (%d/%d)",
			len(warmup.Jobs), len(eval.Jobs))
	}

	replay := &trace.Trace{Cluster: "drift-replay"}
	replay.Jobs = append(replay.Jobs, pre.Test.Jobs...)
	replay.Jobs = append(replay.Jobs, postFull.Jobs...)
	replay.Sort()

	return &DriftScenario{
		Pre:       pre,
		Warmup:    warmup,
		Eval:      eval,
		Replay:    replay,
		SpliceSec: offset,
	}, nil
}

// Drift builds the spliced scenario and evaluates the three methods.
func Drift(opts Options) (*DriftResult, error) {
	sc, err := BuildDriftScenario(opts)
	if err != nil {
		return nil, err
	}
	pre, eval := sc.Pre, sc.Eval

	staleModel, err := TrainModelOn(pre.Train.Jobs, pre.Cost, opts)
	if err != nil {
		return nil, err
	}
	retrainedModel, err := TrainModelOn(sc.Warmup.Jobs, pre.Cost, opts)
	if err != nil {
		return nil, err
	}

	peak := eval.PeakSSDUsage()
	res := &DriftResult{
		Quotas:   []float64{0.01, 0.05, 0.1, 0.25},
		PreJobs:  len(pre.Train.Jobs),
		PostJobs: len(eval.Jobs),
	}
	for _, frac := range res.Quotas {
		quota := peak * frac
		stale, err := runRankingOn(eval, staleModel, pre, quota)
		if err != nil {
			return nil, err
		}
		retrained, err := runRankingOn(eval, retrainedModel, pre, quota)
		if err != nil {
			return nil, err
		}
		ff, err := sim.Run(eval, policy.FirstFit{}, pre.Cost, sim.Config{SSDQuota: quota})
		if err != nil {
			return nil, err
		}
		res.Stale = append(res.Stale, stale)
		res.Retrained = append(res.Retrained, retrained)
		res.FirstFit = append(res.FirstFit, ff.TCOSavingsPercent())
	}
	return res, nil
}

// runRankingOn evaluates AdaptiveRanking with the given model on a
// trace and returns its TCO savings percent.
func runRankingOn(eval *trace.Trace, model *core.CategoryModel, env *Env, quota float64) (float64, error) {
	p, err := policy.NewAdaptiveRanking(model, env.Cost,
		core.DefaultAdaptiveConfig(model.NumCategories()))
	if err != nil {
		return 0, err
	}
	r, err := sim.Run(eval, p, env.Cost, sim.Config{SSDQuota: quota})
	if err != nil {
		return 0, err
	}
	return r.TCOSavingsPercent(), nil
}

// Render writes the drift comparison.
func (r *DriftResult) Render(w io.Writer) {
	var rows [][]string
	for i, q := range r.Quotas {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", q*100),
			fmt.Sprintf("%.3f", r.Stale[i]),
			fmt.Sprintf("%.3f", r.Retrained[i]),
			fmt.Sprintf("%.3f", r.FirstFit[i]),
		})
	}
	Table(w, "Extension — workload drift: stale vs retrained model (§2.3)",
		[]string{"quota", "stale TCO%", "retrained TCO%", "firstfit TCO%"}, rows)
}
