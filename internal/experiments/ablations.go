package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// GranularityResult is the §5.1 model-granularity ablation: one joint
// model per cluster (the paper's choice) versus one model per user and
// one per pipeline. Finer models specialize but see less data and leave
// cold-start gaps; all granularities share one labeler so that hints
// remain comparable at the storage layer.
type GranularityResult struct {
	Cluster string
	Rows    []GranularityRow
}

// GranularityRow is one granularity setting.
type GranularityRow struct {
	Granularity  string
	NumModels    int
	MeanTrainSet float64
	Accuracy     float64
	TCOPctAt1    float64 // TCO savings at 1% quota
	TCOPctAt10   float64 // TCO savings at 10% quota
}

// Granularity trains models at three granularities and compares them.
func Granularity(opts Options) (*GranularityResult, error) {
	env := BuildEnv(0, opts)
	labeler, err := core.FitLabeler(env.Train.Jobs, env.Cost, opts.NumCategories)
	if err != nil {
		return nil, err
	}
	topts := core.DefaultTrainOptions()
	topts.NumCategories = opts.NumCategories
	topts.GBDT.NumRounds = opts.GBDTRounds
	topts.GBDT.Seed = opts.Seed

	clusterModel, err := core.TrainCategoryModelWithLabeler(env.Train.Jobs, env.Cost, labeler, topts)
	if err != nil {
		return nil, err
	}

	res := &GranularityResult{Cluster: env.Cluster}
	const minTrainJobs = 60

	for _, g := range []struct {
		name string
		key  func(*trace.Job) string
	}{
		{"per-cluster", func(*trace.Job) string { return "all" }},
		{"per-user", func(j *trace.Job) string { return j.User }},
		{"per-pipeline", func(j *trace.Job) string { return j.Pipeline }},
	} {
		groups := map[string][]*trace.Job{}
		for _, j := range env.Train.Jobs {
			groups[g.key(j)] = append(groups[g.key(j)], j)
		}
		models := map[string]*core.CategoryModel{}
		var trainSizes float64
		for key, jobs := range groups {
			if len(jobs) < minTrainJobs {
				continue // cold group: falls back to the cluster model
			}
			m, err := core.TrainCategoryModelWithLabeler(jobs, env.Cost, labeler, topts)
			if err != nil {
				return nil, fmt.Errorf("granularity %s group %s: %w", g.name, key, err)
			}
			models[key] = m
			trainSizes += float64(len(jobs))
		}
		if g.name == "per-cluster" {
			models = map[string]*core.CategoryModel{"all": clusterModel}
			trainSizes = float64(len(env.Train.Jobs))
		}
		var buf []float64
		predict := func(j *trace.Job) (cat int) {
			m, ok := models[g.key(j)]
			if !ok {
				m = clusterModel
			}
			cat, buf = m.PredictInto(j, buf)
			return cat
		}
		// Accuracy against the shared label design.
		correct := 0
		for _, j := range env.Test.Jobs {
			if predict(j) == labeler.Label(j, env.Cost) {
				correct++
			}
		}
		row := GranularityRow{
			Granularity: g.name,
			NumModels:   len(models),
			Accuracy:    float64(correct) / float64(len(env.Test.Jobs)),
		}
		if len(models) > 0 {
			row.MeanTrainSet = trainSizes / float64(len(models))
		}
		for _, setting := range []struct {
			frac float64
			dst  *float64
		}{{0.01, &row.TCOPctAt1}, {0.10, &row.TCOPctAt10}} {
			p, err := policy.NewAdaptiveFunc("granularity-"+g.name, predict, env.Cost,
				core.DefaultAdaptiveConfig(opts.NumCategories))
			if err != nil {
				return nil, err
			}
			r, err := sim.Run(env.Test, p, env.Cost, sim.Config{SSDQuota: env.PeakUsage * setting.frac})
			if err != nil {
				return nil, err
			}
			*setting.dst = r.TCOSavingsPercent()
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render writes the granularity comparison.
func (r *GranularityResult) Render(w io.Writer) {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Granularity,
			fmt.Sprintf("%d", row.NumModels),
			fmt.Sprintf("%.0f", row.MeanTrainSet),
			fmt.Sprintf("%.3f", row.Accuracy),
			fmt.Sprintf("%.3f", row.TCOPctAt1),
			fmt.Sprintf("%.3f", row.TCOPctAt10),
		})
	}
	Table(w, "Ablation — model training granularity (§5.1), cluster "+r.Cluster,
		[]string{"granularity", "models", "mean train set", "top-1 acc", "TCO% @1%", "TCO% @10%"}, rows)
}

// LabelDesignResult is the §4.2 label-design ablation: the paper's
// density-quantile categories versus linearly and logarithmically
// spaced boundaries. Imbalanced labels starve most categories of
// training data and blunt the ranking.
type LabelDesignResult struct {
	Cluster string
	Rows    []LabelDesignRow
}

// LabelDesignRow is one spacing setting.
type LabelDesignRow struct {
	Spacing string
	// BalanceEntropy is the normalized entropy of the training label
	// histogram over classes 1..N-1 (1 = perfectly balanced).
	BalanceEntropy float64
	// LargestClassFrac is the share of the largest non-negative class.
	LargestClassFrac float64
	Accuracy         float64
	TCOPctAt1        float64
	TCOPctAt10       float64
}

// LabelDesign compares boundary spacings end to end.
func LabelDesign(opts Options) (*LabelDesignResult, error) {
	env := BuildEnv(0, opts)
	topts := core.DefaultTrainOptions()
	topts.NumCategories = opts.NumCategories
	topts.GBDT.NumRounds = opts.GBDTRounds
	topts.GBDT.Seed = opts.Seed

	res := &LabelDesignResult{Cluster: env.Cluster}
	for _, spacing := range []core.Spacing{core.SpacingQuantile, core.SpacingLinear, core.SpacingLog} {
		labeler, err := core.FitLabelerSpacing(env.Train.Jobs, env.Cost, opts.NumCategories, spacing)
		if err != nil {
			return nil, err
		}
		model, err := core.TrainCategoryModelWithLabeler(env.Train.Jobs, env.Cost, labeler, topts)
		if err != nil {
			return nil, err
		}
		row := LabelDesignRow{Spacing: spacing.String()}
		row.BalanceEntropy, row.LargestClassFrac = labelBalance(labeler, env.Train.Jobs, env)
		row.Accuracy = model.Accuracy(env.Test.Jobs, env.Cost)
		for _, setting := range []struct {
			frac float64
			dst  *float64
		}{{0.01, &row.TCOPctAt1}, {0.10, &row.TCOPctAt10}} {
			p, err := policy.NewAdaptiveRanking(model, env.Cost, core.DefaultAdaptiveConfig(opts.NumCategories))
			if err != nil {
				return nil, err
			}
			r, err := sim.Run(env.Test, p, env.Cost, sim.Config{SSDQuota: env.PeakUsage * setting.frac})
			if err != nil {
				return nil, err
			}
			*setting.dst = r.TCOSavingsPercent()
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// labelBalance computes the normalized entropy and max share of the
// positive classes' label histogram.
func labelBalance(l *core.Labeler, jobs []*trace.Job, env *Env) (entropy, largest float64) {
	counts := make([]float64, l.NumCategories)
	var totalPos float64
	for _, j := range jobs {
		c := l.Label(j, env.Cost)
		counts[c]++
		if c > 0 {
			totalPos++
		}
	}
	if totalPos == 0 {
		return 0, 0
	}
	var h float64
	for c := 1; c < l.NumCategories; c++ {
		p := counts[c] / totalPos
		if p > largest {
			largest = p
		}
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	maxH := math.Log(float64(l.NumCategories - 1))
	if maxH > 0 {
		entropy = h / maxH
	}
	return entropy, largest
}

// Render writes the label-design comparison.
func (r *LabelDesignResult) Render(w io.Writer) {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Spacing,
			fmt.Sprintf("%.3f", row.BalanceEntropy),
			fmt.Sprintf("%.2f", row.LargestClassFrac),
			fmt.Sprintf("%.3f", row.Accuracy),
			fmt.Sprintf("%.3f", row.TCOPctAt1),
			fmt.Sprintf("%.3f", row.TCOPctAt10),
		})
	}
	Table(w, "Ablation — category label design (§4.2), cluster "+r.Cluster,
		[]string{"spacing", "balance entropy", "largest class", "top-1 acc", "TCO% @1%", "TCO% @10%"}, rows)
	fmt.Fprintf(w, "paper: linear/log spacing heavily imbalance the training set\n")
}

// WindowSemanticsResult is the §4.3 window-semantics ablation: the
// spillover estimator over jobs *starting* within the look-back window
// (the paper's design) versus jobs *overlapping* it, where long-lived
// jobs have an outsize effect.
type WindowSemanticsResult struct {
	Cluster     string
	Quotas      []float64
	StartWithin []float64
	Overlapping []float64
}

// WindowSemantics compares the two estimator semantics across quotas.
func WindowSemantics(opts Options) (*WindowSemanticsResult, error) {
	env := BuildEnv(0, opts)
	model, err := env.TrainModel(opts)
	if err != nil {
		return nil, err
	}
	res := &WindowSemanticsResult{
		Cluster: env.Cluster,
		Quotas:  []float64{0.005, 0.01, 0.05, 0.1, 0.25},
	}
	for _, mode := range []core.WindowMode{core.WindowStartWithin, core.WindowOverlapping} {
		for _, frac := range res.Quotas {
			acfg := core.DefaultAdaptiveConfig(model.NumCategories())
			acfg.WindowMode = mode
			p, err := policy.NewAdaptiveRanking(model, env.Cost, acfg)
			if err != nil {
				return nil, err
			}
			r, err := sim.Run(env.Test, p, env.Cost, sim.Config{SSDQuota: env.PeakUsage * frac})
			if err != nil {
				return nil, err
			}
			if mode == core.WindowStartWithin {
				res.StartWithin = append(res.StartWithin, r.TCOSavingsPercent())
			} else {
				res.Overlapping = append(res.Overlapping, r.TCOSavingsPercent())
			}
		}
	}
	return res, nil
}

// Render writes the window-semantics comparison.
func (r *WindowSemanticsResult) Render(w io.Writer) {
	var rows [][]string
	for i, q := range r.Quotas {
		rows = append(rows, []string{
			fmt.Sprintf("%.1f%%", q*100),
			fmt.Sprintf("%.3f", r.StartWithin[i]),
			fmt.Sprintf("%.3f", r.Overlapping[i]),
		})
	}
	Table(w, "Ablation — look-back window semantics (§4.3), cluster "+r.Cluster,
		[]string{"quota", "start-within TCO%", "overlapping TCO%"}, rows)
	fmt.Fprintf(w, "paper: start-within estimates current SSD usage more accurately\n")
}
