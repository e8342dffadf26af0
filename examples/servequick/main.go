// Command servequick demonstrates the online serving layer through the
// public byom API: train, serve a burst, feed feedback, hot-swap.
package main

import (
	"fmt"
	"log"

	"repro/byom"
)

func main() {
	gcfg := byom.DefaultGeneratorConfig("demo", 2)
	gcfg.DurationSec = 2 * 24 * 3600
	gcfg.NumUsers = 5
	full := byom.GenerateCluster(gcfg)
	train, test := full.SplitAt(full.Duration() / 2)

	cm := byom.DefaultCostModel()
	opts := byom.DefaultTrainOptions()
	opts.NumCategories = 6
	opts.GBDT.NumRounds = 8
	model, err := byom.TrainCategoryModel(train.Jobs, cm, opts)
	if err != nil {
		log.Fatal(err)
	}

	reg := byom.NewModelRegistry()
	if _, err := reg.Publish("demo", model, 0); err != nil {
		log.Fatal(err)
	}
	srv, err := byom.NewServerFromRegistry(reg, "demo", cm, byom.DefaultServeConfig(6))
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	jobs := test.Jobs
	decisions, err := srv.SubmitBatch(jobs, nil)
	if err != nil {
		log.Fatal(err)
	}
	admitted := 0
	for i, d := range decisions {
		if d.Admit {
			admitted++
		}
		// Feed spillover feedback like the storage layer would.
		srv.Observe(jobs[i], byom.Outcome{WantedSSD: d.Admit, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1})
	}
	fmt.Printf("served %d decisions (%d admitted) by model v%d\n",
		len(decisions), admitted, decisions[0].ModelVersion)

	if _, err := reg.Publish("demo", model, 1000); err != nil {
		log.Fatal(err)
	}
	d, err := srv.Submit(jobs[0])
	if err != nil {
		log.Fatal(err)
	}
	stats := srv.Stats()
	fmt.Printf("after hot swap: decision from v%d, swaps=%d\n", d.ModelVersion, srv.Swaps())
	fmt.Printf("stats: %d submitted, %d observations\n", stats.Submitted, stats.Observations)
}
