// Command placementd-example demonstrates the network placement stack
// through the public byom API: train a model and save it as a bundle,
// load the bundle back the way placementd -model does, stand up a
// placement daemon on a loopback port, drive it with a wire client
// (batch placements, outcome feedback, model metadata), hot-swap the
// model via the registry under live traffic, then drain gracefully.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/byom"
)

func main() {
	gcfg := byom.DefaultGeneratorConfig("demo", 4)
	gcfg.DurationSec = 2 * 24 * 3600
	gcfg.NumUsers = 5
	full := byom.GenerateCluster(gcfg)
	train, test := full.SplitAt(full.Duration() / 2)

	cm := byom.DefaultCostModel()
	opts := byom.DefaultTrainOptions()
	opts.NumCategories = 6
	opts.GBDT.NumRounds = 8
	trained, err := byom.TrainCategoryModel(train.Jobs, cm, opts)
	if err != nil {
		log.Fatal(err)
	}

	// Training and serving are separate processes in deployment: the
	// workload saves its model bundle, and the daemon loads it.
	dir, err := os.MkdirTemp("", "placementd-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "model.json")
	if err := trained.SaveFile(path); err != nil {
		log.Fatal(err)
	}
	model, err := byom.LoadCategoryModelFile(path)
	if err != nil {
		log.Fatal(err)
	}

	// The daemon serves whatever version the registry holds for its
	// workload — publishing hot-swaps it under live network load.
	reg := byom.NewModelRegistry()
	if _, err := reg.Publish("demo", model, 0); err != nil {
		log.Fatal(err)
	}
	daemon, err := byom.NewDaemon(reg, "demo", cm, byom.DefaultDaemonConfig(6))
	if err != nil {
		log.Fatal(err)
	}
	if err := daemon.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("daemon listening on a loopback port")

	client, err := byom.NewClient(byom.DefaultClientConfig(daemon.BaseURL()))
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()

	// Batch placements over the wire, with outcome feedback like the
	// storage layer would report.
	jobs := test.Jobs
	if len(jobs) > 256 {
		jobs = jobs[:256]
	}
	decisions, err := client.Place(ctx, jobs)
	if err != nil {
		log.Fatal(err)
	}
	admitted := 0
	for i, d := range decisions {
		if d.Admit {
			admitted++
		}
		if i%16 == 0 { // sample the feedback stream
			o := byom.Outcome{WantedSSD: d.Admit, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}
			if err := client.Observe(ctx, jobs[i], d.Category, o); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("placed %d jobs over HTTP: %d admitted to SSD\n", len(decisions), admitted)

	// Hot-swap: publish v2 and watch decisions carry the new version.
	if _, err := reg.Publish("demo", model, 1000); err != nil {
		log.Fatal(err)
	}
	d2, err := client.PlaceOne(ctx, jobs[0])
	if err != nil {
		log.Fatal(err)
	}
	info, err := client.ModelInfo(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after publish: decision served by model v%d, daemon reports v%d (%d swaps)\n",
		d2.ModelVersion, info.ModelVersion, info.Swaps)

	stats := daemon.Stats()
	fmt.Printf("daemon counters: %d place requests, %d placements, %d sheds\n",
		stats.PlaceRequests, stats.PlaceJobs, stats.Shed)

	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := daemon.Shutdown(sctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("daemon drained cleanly")
}
