// Command fleet demonstrates the multi-cluster fleet simulation
// through the public byom API: four heterogeneous clusters are
// generated from one seed, each trains its own category model (the
// BYOM premise — per-cluster specialization), and every cluster's test
// window is evaluated under three regimes: its own model, one global
// model trained on the whole fleet, and a transfer model trained on a
// donor cluster. The online loop then runs per cluster against one
// shared registry, each publishing under its own "cluster/<id>" key —
// the paper's blast-radius argument at fleet scope.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/byom"
)

func main() {
	cfg := byom.DefaultFleetConfig(4, 1)
	cfg.Fleet.DurationSec = 2 * 24 * 3600 // two days per cluster: quick demo
	cfg.Fleet.Users = 6
	cfg.Train.NumCategories = 8
	cfg.Train.GBDT.NumRounds = 8

	// Close the loop per cluster: retrain every simulated 8 hours once
	// 200 outcomes are windowed, gate on holdout TCO savings, hot-swap
	// survivors.
	ocfg := byom.DefaultOnlineConfig(8)
	ocfg.RetrainEverySec = 8 * 3600
	ocfg.MinRetrainJobs = 200
	ocfg.Drift.MinSamples = 200
	cfg.Online = &ocfg

	reg := byom.NewModelRegistry()
	rep, err := byom.RunFleet(cfg, reg)
	if err != nil {
		log.Fatal(err)
	}
	rep.Render(os.Stdout)

	// The shared registry now holds each cluster's model lineage in
	// its own namespace — rollback or inspection never crosses keys.
	fmt.Println("\nregistry state after the run:")
	for _, w := range reg.Workloads() {
		versions := reg.Versions(w)
		_, active, err := reg.Resolve(w)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s %d versions, serving v%d\n", w, len(versions), active.Number)
	}
}
