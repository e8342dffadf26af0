package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Fig8Result reproduces Figure 8: cross-workload generalization. A
// category model trained on each of clusters C0..C3 is evaluated on
// C0's test week across quotas. C3 is the pathological cluster running
// only workloads rare elsewhere; its model should underperform, while
// C1/C2 models should track the home-trained model.
type Fig8Result struct {
	Quotas []float64
	// TCOPct["C1"] is the savings curve on C0 using the model trained
	// on C1. "baseline" is the best non-BYOM baseline on C0.
	TCOPct map[string][]float64
}

// Fig8 trains one model per cluster C0..C3 and evaluates all on C0.
func Fig8(opts Options) (*Fig8Result, error) {
	target := BuildEnv(0, opts)
	res := &Fig8Result{Quotas: QuotaFractions, TCOPct: map[string][]float64{}}

	for i := 0; i < 4; i++ {
		env := BuildEnv(i, opts)
		model, err := env.TrainModel(opts)
		if err != nil {
			return nil, fmt.Errorf("training on %s: %w", env.Cluster, err)
		}
		curve, err := target.rankingCurve(res.Quotas, SuiteConfig{Model: model})
		if err != nil {
			return nil, err
		}
		res.TCOPct["train "+env.Cluster] = curve
	}
	for _, frac := range res.Quotas {
		suite, err := target.RunSuite(target.PeakUsage*frac, SuiteConfig{
			Methods: []string{policy.NameFirstFit, policy.NameHeuristic},
		})
		if err != nil {
			return nil, err
		}
		res.TCOPct["baseline"] = append(res.TCOPct["baseline"], suite.BestBaselineTCO())
	}
	return res, nil
}

// Render writes the generalization curves.
func (r *Fig8Result) Render(w io.Writer) {
	keys := make([]string, 0, len(r.TCOPct))
	for k := range r.TCOPct {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	seriesTable(w, "Fig 8 — workload generalization (all curves evaluated on C0)", "series", r.Quotas, keys, r.TCOPct)
}

// Fig10Result reproduces Figure 10: generalization to new users and new
// pipelines. For each cluster, the second-largest TCO user (or
// pipeline) is withheld from training; the with/without curves should
// nearly coincide.
type Fig10Result struct {
	Modes []Fig10Mode // the user mode, then the pipeline mode
}

// Fig10Mode is one leave-out axis.
type Fig10Mode struct {
	Mode     string // "user" or "pipeline"
	Clusters []Fig10Cluster
}

// Fig10Cluster is one cluster's with/without comparison.
type Fig10Cluster struct {
	Cluster  string
	Withheld string // which user/pipeline was excluded
	Quotas   []float64
	With     []float64
	Without  []float64
}

// Fig10 runs the leave-out experiment over numClusters clusters, once
// withholding a user and once a pipeline. A cluster's full-data model
// and its "with" curve serve both modes.
func Fig10(opts Options, numClusters int) (*Fig10Result, error) {
	res := &Fig10Result{Modes: []Fig10Mode{{Mode: "user"}, {Mode: "pipeline"}}}
	quotas := []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1.0}
	for i := 0; i < numClusters; i++ {
		env := BuildEnv(i, opts)
		var with []float64
		for m := range res.Modes {
			mode := &res.Modes[m]
			withheld := secondLargestTCOGroup(env, mode.Mode)
			if withheld == "" {
				continue
			}
			trainWithout := env.Train.Filter(func(j *trace.Job) bool { return groupOf(j, mode.Mode) != withheld })
			if len(trainWithout.Jobs) < 100 {
				continue
			}
			if with == nil {
				withModel, err := env.TrainModel(opts)
				if err != nil {
					return nil, err
				}
				if with, err = env.rankingCurve(quotas, SuiteConfig{Model: withModel}); err != nil {
					return nil, err
				}
			}
			withoutModel, err := TrainModelOn(trainWithout.Jobs, env.Cost, opts)
			if err != nil {
				return nil, err
			}
			without, err := env.rankingCurve(quotas, SuiteConfig{Model: withoutModel})
			if err != nil {
				return nil, err
			}
			mode.Clusters = append(mode.Clusters, Fig10Cluster{
				Cluster: env.Cluster, Withheld: withheld, Quotas: quotas, With: with, Without: without,
			})
		}
	}
	for _, mode := range res.Modes {
		if len(mode.Clusters) == 0 {
			return nil, fmt.Errorf("experiments: fig10 found no eligible clusters for new %s", mode.Mode)
		}
	}
	return res, nil
}

// secondLargestTCOGroup returns the user/pipeline with the
// second-largest total TCO in the cluster's test half.
func secondLargestTCOGroup(env *Env, mode string) string {
	totals := map[string]float64{}
	for _, j := range env.Test.Jobs {
		totals[groupOf(j, mode)] += env.Cost.TCOHDD(j)
	}
	type kv struct {
		k string
		v float64
	}
	var items []kv
	for k, v := range totals {
		items = append(items, kv{k, v})
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].v != items[b].v {
			return items[a].v > items[b].v
		}
		return items[a].k < items[b].k
	})
	if len(items) < 2 {
		return ""
	}
	return items[1].k
}

// groupOf returns the job's user or pipeline, as mode names.
func groupOf(j *trace.Job, mode string) string {
	if mode == "pipeline" {
		return j.Pipeline
	}
	return j.User
}

// MaxRelativeGap returns the largest |with-without| gap relative to the
// with-curve value, across all of the mode's clusters and quotas.
func (r *Fig10Mode) MaxRelativeGap() float64 {
	gap := 0.0
	for _, c := range r.Clusters {
		for i := range c.With {
			if c.With[i] > 0 {
				gap = max(gap, math.Abs(c.With[i]-c.Without[i])/c.With[i])
			}
		}
	}
	return gap
}

// Render writes per-cluster with/without curves, user mode first.
func (r *Fig10Result) Render(w io.Writer) {
	for _, m := range r.Modes {
		for _, c := range m.Clusters {
			Table(w, fmt.Sprintf("Fig 10 — new %s generalization, cluster %s (withheld %s)",
				m.Mode, c.Cluster, c.Withheld),
				[]string{"quota", "train with", "train without"}, quotaRows("%.0f%%", c.Quotas, c.With, c.Without))
		}
		fmt.Fprintf(w, "max relative gap: %.1f%%\n", m.MaxRelativeGap()*100)
	}
}

// Fig16Result reproduces Figure 16 (Appendix C.3): the dynamics of the
// category admission threshold and spillover percentage over the test
// window at four quotas.
type Fig16Result struct {
	Cluster string
	Series  []Fig16Series
}

// Fig16Series is the controller trace at one quota.
type Fig16Series struct {
	QuotaFrac float64
	Points    []core.ACTPoint
	TCOPct    float64
}

// Fig16 records ACT dynamics at the paper's four quota settings.
func Fig16(opts Options) (*Fig16Result, error) {
	env := BuildEnv(0, opts)
	model, err := env.TrainModel(opts)
	if err != nil {
		return nil, err
	}
	res := &Fig16Result{Cluster: env.Cluster}
	acfg := core.DefaultAdaptiveConfig(model.NumCategories())
	acfg.RecordTrace = true
	for _, frac := range []float64{0.0001, 0.01, 0.1, 0.5} {
		ranking, err := policy.NewAdaptiveRanking(model, env.Cost, acfg)
		if err != nil {
			return nil, err
		}
		r, err := sim.Run(env.Test, ranking, env.Cost, sim.Config{SSDQuota: env.PeakUsage * frac})
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, Fig16Series{
			QuotaFrac: frac,
			Points:    ranking.ACTTrace(),
			TCOPct:    r.TCOSavingsPercent(),
		})
	}
	return res, nil
}

// MeanACT returns the time-averaged ACT of a series.
func (s *Fig16Series) MeanACT() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += float64(p.ACT)
	}
	return sum / float64(len(s.Points))
}

// Render writes a compact summary per quota (full traces are large).
func (r *Fig16Result) Render(w io.Writer) {
	var rows [][]string
	for _, s := range r.Series {
		maxACT, maxSpill := 0, 0.0
		for _, p := range s.Points {
			if p.ACT > maxACT {
				maxACT = p.ACT
			}
			if p.Spillover > maxSpill {
				maxSpill = p.Spillover
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.2f%%", s.QuotaFrac*100),
			fmt.Sprintf("%d", len(s.Points)),
			fmt.Sprintf("%.2f", s.MeanACT()),
			fmt.Sprintf("%d", maxACT),
			fmt.Sprintf("%.2f", maxSpill),
			fmt.Sprintf("%.3f", s.TCOPct),
		})
	}
	Table(w, "Fig 16 — adaptive threshold dynamics, cluster "+r.Cluster,
		[]string{"quota", "decisions", "mean ACT", "max ACT", "max spill", "TCO%"}, rows)
}
