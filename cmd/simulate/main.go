// Command simulate replays a trace through a placement policy at a
// given SSD quota and prints TCO/TCIO savings.
//
// Usage:
//
//	simulate -trace c0.jsonl -policy ranking -model model.json -quota 0.01
//	simulate -trace c0.jsonl -policy firstfit -quota 0.01
//	simulate -trace c0.jsonl -policy oracle -quota 0.01
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/byom"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gbdt"
	"repro/internal/oracle"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	var (
		tracePath  = fs.String("trace", "", "input trace (JSON lines)")
		policyName = fs.String("policy", "ranking", "ranking|hash|firstfit|heuristic|mlbaseline|oracle|oracle-tcio")
		modelPath  = fs.String("model", "", "category model bundle (for -policy ranking)")
		quotaFrac  = fs.Float64("quota", 0.01, "SSD quota as a fraction of the trace's peak usage")
		split      = fs.Float64("split", 0.5, "train/test time split (baselines are primed on the training part)")
		ttl        = fs.Float64("ttl", 7200, "TTL seconds for the ML lifetime baseline")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *tracePath == "" {
		return fmt.Errorf("-trace is required")
	}
	full, err := byom.LoadTrace(*tracePath)
	if err != nil {
		return err
	}
	cut := full.Duration() * *split
	train, test := full.SplitAt(cut)
	cm := cost.Default()
	quota := test.PeakSSDUsage() * *quotaFrac

	p, err := buildPolicy(*policyName, *modelPath, train.Jobs, test, quota, cm, *ttl)
	if err != nil {
		return err
	}
	res, err := sim.Run(test, p, cm, sim.Config{SSDQuota: quota})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "policy:           %s\n", res.PolicyName)
	fmt.Fprintf(stdout, "test jobs:        %d\n", len(test.Jobs))
	fmt.Fprintf(stdout, "SSD quota:        %.2f GiB (%.2f%% of peak)\n", quota/(1<<30), *quotaFrac*100)
	fmt.Fprintf(stdout, "SSD peak used:    %.2f GiB\n", res.SSDPeakUsed/(1<<30))
	fmt.Fprintf(stdout, "TCO savings:      %.3f%%\n", res.TCOSavingsPercent())
	fmt.Fprintf(stdout, "TCIO savings:     %.3f%%\n", res.TCIOSavingsPercent())
	return nil
}

func buildPolicy(name, modelPath string, trainJobs []*trace.Job, test *trace.Trace,
	quota float64, cm *cost.Model, ttl float64) (sim.Policy, error) {
	switch name {
	case "firstfit":
		return policy.FirstFit{}, nil
	case "heuristic":
		h := policy.NewHeuristic(cm)
		h.Prime(trainJobs)
		return h, nil
	case "mlbaseline":
		cfg := gbdt.DefaultConfig()
		return policy.TrainMLBaseline(trainJobs, ttl, cfg)
	case "hash":
		return policy.NewAdaptiveHash(cm, core.DefaultAdaptiveConfig(15))
	case "ranking":
		var model *core.CategoryModel
		var err error
		if modelPath != "" {
			model, err = core.LoadCategoryModelFile(modelPath)
		} else {
			fmt.Fprintln(os.Stderr, "simulate: no -model given; training one on the trace's first half")
			model, err = core.TrainCategoryModel(trainJobs, cm, core.DefaultTrainOptions())
		}
		if err != nil {
			return nil, err
		}
		return policy.NewAdaptiveRanking(model, cm, core.DefaultAdaptiveConfig(model.NumCategories()))
	case "oracle", "oracle-tcio":
		cfg := oracle.DefaultConfig()
		if name == "oracle-tcio" {
			cfg.Objective = oracle.TCIO
		}
		sol, err := oracle.Solve(test.Jobs, quota, cm, cfg)
		if err != nil {
			return nil, err
		}
		return policy.NewStatic("Oracle("+cfg.Objective.String()+")", sol.OnSSD), nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}
