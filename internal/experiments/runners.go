package experiments

import "io"

// Runner is one table or figure of the evaluation: what cmd/experiments
// prints for -fig ID, and what testdata/ID.golden pins at QuickOptions.
type Runner struct {
	ID   string
	Desc string
	run  func(Options) (renderer, error)
}

type renderer interface{ Render(io.Writer) }

// Run runs the experiment at opts and renders it to w.
func (r Runner) Run(opts Options, w io.Writer) error {
	res, err := r.run(opts)
	if err != nil {
		return err
	}
	res.Render(w)
	return nil
}

// runner adapts an experiment entry point that returns a renderable
// result.
func runner[R renderer](id, desc string, run func(Options) (R, error)) Runner {
	return Runner{ID: id, Desc: desc, run: func(o Options) (renderer, error) { return run(o) }}
}

// Runners lists every experiment, in the order -fig all runs them.
var Runners = []Runner{
	runner("fig1", "workload diversity", Fig1),
	runner("headroom", "oracle headroom analysis (Section 3.1)", Headroom),
	runner("fig4", "oracle decisions vs I/O density", Fig4),
	runner("fig5", "prototype deployment", Fig5),
	runner("fig6", "per-cluster savings at 1% quota", func(o Options) (*Fig6Result, error) { return Fig6(o, 10) }),
	runner("fig7", "TCO savings vs SSD quota", Fig7),
	runner("fig8", "cross-workload generalization", Fig8),
	runner("fig9a", "inference latency", Fig9a),
	runner("fig9b", "accuracy vs training size", Fig9b),
	runner("fig9c", "feature-group importance", Fig9c),
	runner("fig10", "new users and pipelines", func(o Options) (*Fig10Result, error) { return Fig10(o, 5) }),
	runner("fig11", "predicted vs true category", Fig11),
	runner("fig13", "mixed workload prototype", Fig13),
	runner("fig14", "application run-time savings", Fig14),
	runner("fig15", "hyperparameter sensitivity", Fig15),
	runner("fig16", "adaptive threshold dynamics", Fig16),
	runner("tab4", "category-count sweep (Table 4)", Table4),
	runner("granularity", "ablation: model training granularity (§5.1)", Granularity),
	runner("labels", "ablation: category label design (§4.2)", LabelDesign),
	runner("window", "ablation: look-back window semantics (§4.3)", WindowSemantics),
	runner("drift", "extension: workload drift, stale vs retrained model (§2.3)", Drift),
	runner("imitation", "extension: imitation learning vs BYOM (§4)", Imitation),
	runner("costsens", "extension: SSD wear-rate sensitivity (§5.1 metrics note)", CostSensitivity),
}
