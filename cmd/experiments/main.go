// Command experiments regenerates the paper's tables and figures (the
// experiment ids are listed in runners below; docs/ARCHITECTURE.md, "Paper
// section → package correspondence", maps them to packages). Every
// experiment prints a plain-text table with the same rows/series the
// paper plots.
//
// Usage:
//
//	experiments -fig all            # everything (minutes)
//	experiments -fig fig7           # one experiment
//	experiments -fig fig6 -quick    # reduced scale
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/experiments"
)

// runner executes one experiment and renders it to stdout.
type runner struct {
	id   string
	desc string
	run  func(opts experiments.Options) error
}

func runners() []runner {
	render := func(err error, render func()) error {
		if err != nil {
			return err
		}
		render()
		return nil
	}
	return []runner{
		{"fig1", "workload diversity", func(o experiments.Options) error {
			r, err := experiments.Fig1(o)
			return render(err, func() { r.Render(os.Stdout) })
		}},
		{"headroom", "oracle headroom analysis (Section 3.1)", func(o experiments.Options) error {
			r, err := experiments.Headroom(o)
			return render(err, func() { r.Render(os.Stdout) })
		}},
		{"fig4", "oracle decisions vs I/O density", func(o experiments.Options) error {
			r, err := experiments.Fig4(o)
			return render(err, func() { r.Render(os.Stdout) })
		}},
		{"fig5", "prototype deployment", func(o experiments.Options) error {
			r, err := experiments.Fig5(o)
			return render(err, func() { r.Render(os.Stdout) })
		}},
		{"fig6", "per-cluster savings at 1% quota", func(o experiments.Options) error {
			r, err := experiments.Fig6(o, 10)
			return render(err, func() { r.Render(os.Stdout) })
		}},
		{"fig7", "TCO savings vs SSD quota", func(o experiments.Options) error {
			r, err := experiments.Fig7(o)
			return render(err, func() { r.Render(os.Stdout) })
		}},
		{"fig8", "cross-workload generalization", func(o experiments.Options) error {
			r, err := experiments.Fig8(o)
			return render(err, func() { r.Render(os.Stdout) })
		}},
		{"fig9a", "inference latency", func(o experiments.Options) error {
			r, err := experiments.Fig9a(o)
			return render(err, func() { r.Render(os.Stdout) })
		}},
		{"fig9b", "accuracy vs training size", func(o experiments.Options) error {
			r, err := experiments.Fig9b(o)
			return render(err, func() { r.Render(os.Stdout) })
		}},
		{"fig9c", "feature-group importance", func(o experiments.Options) error {
			r, err := experiments.Fig9c(o)
			return render(err, func() { r.Render(os.Stdout) })
		}},
		{"fig10", "new users and pipelines", func(o experiments.Options) error {
			for _, mode := range []string{"user", "pipeline"} {
				r, err := experiments.Fig10(o, mode, 5)
				if err != nil {
					return err
				}
				r.Render(os.Stdout)
			}
			return nil
		}},
		{"fig11", "predicted vs true category", func(o experiments.Options) error {
			r, err := experiments.Fig11(o)
			return render(err, func() { r.Render(os.Stdout) })
		}},
		{"fig13", "mixed workload prototype", func(o experiments.Options) error {
			r, err := experiments.Fig13(o)
			return render(err, func() { r.Render(os.Stdout) })
		}},
		{"fig14", "application run-time savings", func(o experiments.Options) error {
			r, err := experiments.Fig14(o)
			return render(err, func() { r.Render(os.Stdout) })
		}},
		{"fig15", "hyperparameter sensitivity", func(o experiments.Options) error {
			r, err := experiments.Fig15(o)
			return render(err, func() { r.Render(os.Stdout) })
		}},
		{"fig16", "adaptive threshold dynamics", func(o experiments.Options) error {
			r, err := experiments.Fig16(o)
			return render(err, func() { r.Render(os.Stdout) })
		}},
		{"tab4", "category-count sweep (Table 4)", func(o experiments.Options) error {
			r, err := experiments.Table4(o)
			return render(err, func() { r.Render(os.Stdout) })
		}},
		{"granularity", "ablation: model training granularity (§5.1)", func(o experiments.Options) error {
			r, err := experiments.Granularity(o)
			return render(err, func() { r.Render(os.Stdout) })
		}},
		{"labels", "ablation: category label design (§4.2)", func(o experiments.Options) error {
			r, err := experiments.LabelDesign(o)
			return render(err, func() { r.Render(os.Stdout) })
		}},
		{"window", "ablation: look-back window semantics (§4.3)", func(o experiments.Options) error {
			r, err := experiments.WindowSemantics(o)
			return render(err, func() { r.Render(os.Stdout) })
		}},
		{"drift", "extension: workload drift, stale vs retrained model (§2.3)", func(o experiments.Options) error {
			r, err := experiments.Drift(o)
			return render(err, func() { r.Render(os.Stdout) })
		}},
		{"imitation", "extension: imitation learning vs BYOM (§4)", func(o experiments.Options) error {
			r, err := experiments.Imitation(o)
			return render(err, func() { r.Render(os.Stdout) })
		}},
		{"costsens", "extension: SSD wear-rate sensitivity (§5.1 metrics note)", func(o experiments.Options) error {
			r, err := experiments.CostSensitivity(o)
			return render(err, func() { r.Render(os.Stdout) })
		}},
	}
}

func main() {
	var (
		fig   = flag.String("fig", "all", "experiment id or 'all'")
		quick = flag.Bool("quick", false, "reduced scale for a fast pass")
		seed  = flag.Int64("seed", 1, "experiment seed")
	)
	flag.Parse()

	opts := experiments.DefaultOptions()
	if *quick {
		opts = experiments.QuickOptions()
	}
	opts.Seed = *seed

	all := runners()
	ids := make([]string, len(all))
	byID := map[string]runner{}
	for i, r := range all {
		ids[i] = r.id
		byID[r.id] = r
	}
	sort.Strings(ids)

	var selected []runner
	if *fig == "all" {
		selected = all
	} else if r, ok := byID[*fig]; ok {
		selected = []runner{r}
	} else {
		fmt.Fprintf(os.Stderr, "experiments: unknown id %q; available: all %v\n", *fig, ids)
		os.Exit(2)
	}

	for _, r := range selected {
		start := time.Now()
		fmt.Printf("\n######## %s — %s\n", r.id, r.desc)
		if err := r.run(opts); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", r.id, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %.1fs]\n", r.id, time.Since(start).Seconds())
	}
}
