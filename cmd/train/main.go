// Command train fits a BYOM category model on the first portion of a
// trace and reports held-out accuracy on the remainder.
//
// Usage:
//
//	train -trace c0.jsonl -split 0.5 -categories 15 -rounds 60 -out model.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/byom"
)

func main() {
	var (
		tracePath  = flag.String("trace", "", "input trace (JSON lines)")
		split      = flag.Float64("split", 0.5, "fraction of the trace time span used for training")
		categories = flag.Int("categories", 15, "number of importance categories N")
		rounds     = flag.Int("rounds", 60, "boosting rounds")
		depth      = flag.Int("depth", 6, "maximum tree depth")
		seed       = flag.Int64("seed", 1, "training seed")
		out        = flag.String("out", "model.json", "output model bundle")
	)
	flag.Parse()
	if *tracePath == "" {
		fatal(fmt.Errorf("-trace is required"))
	}
	tr, err := byom.LoadTrace(*tracePath)
	if err != nil {
		fatal(err)
	}
	cut := tr.Duration() * *split
	train, test := tr.SplitAt(cut)
	if len(train.Jobs) == 0 {
		fatal(fmt.Errorf("no training jobs before t=%.0fs", cut))
	}

	cm := byom.DefaultCostModel()
	opts := byom.DefaultTrainOptions()
	opts.NumCategories = *categories
	opts.GBDT.NumRounds = *rounds
	opts.GBDT.MaxDepth = *depth
	opts.GBDT.Seed = *seed

	model, err := byom.TrainCategoryModel(train.Jobs, cm, opts)
	if err != nil {
		fatal(err)
	}
	if err := model.SaveFile(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("trained N=%d model on %d jobs (%d trees) -> %s\n",
		*categories, len(train.Jobs), model.Forest().NumTrees(), *out)
	if len(test.Jobs) > 0 {
		fmt.Printf("held-out top-1 accuracy on %d jobs: %.3f\n",
			len(test.Jobs), model.Accuracy(test.Jobs, cm))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "train:", err)
	os.Exit(1)
}
