// Logpipeline: a domain-specific example driving the data processing
// framework substrate directly — the workload class the paper's
// introduction motivates (log processing with shuffle-heavy stages).
//
// It builds two pipelines with the mini-Beam builder, executes them as
// discrete-event processes against the in-memory distributed storage
// cluster, and shows the cross-layer path: the framework computes
// features before opening intermediate files, the workload's model
// turns them into an importance hint, and the caching server's
// Algorithm 1 controller decides placement. It drives the internal
// substrates directly; it is not a walkthrough of the public byom API.
//
// Run with: go run ./examples/logpipeline
package main

import (
	"fmt"
	"log"

	"repro/byom"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/desched"
	"repro/internal/dfs"
)

func main() {
	// Two very different pipelines: bulk log compaction (HDD-friendly:
	// large sequential writes, few re-reads) and a sessionization join
	// (SSD-friendly: hot random re-reads).
	compact, err := dataflow.NewPipeline("logcompact", "sre").
		ParDo("parse").
		GroupByKey("by-day", dataflow.ShuffleProfile{
			SizeFactor: 1, WriteAmp: 2.4, ReadFactor: 0.6,
			ReadOpBytes: 4 << 20, CacheHitFrac: 0.55,
		}).
		ParDoScale("compress", 0.3).
		Build()
	if err != nil {
		log.Fatal(err)
	}
	sessions, err := dataflow.NewPipeline("sessionize", "ads").
		ParDo("extract").
		GroupByKey("by-user", dataflow.ShuffleProfile{
			SizeFactor: 0.9, WriteAmp: 1.3, ReadFactor: 16,
			ReadOpBytes: 64 * 1024, CacheHitFrac: 0.15,
		}).
		ParDo("score").
		Build()
	if err != nil {
		log.Fatal(err)
	}
	specs := []dataflow.WorkloadSpec{
		{Pipeline: compact, InputBytes: 8 << 30, NumWorkers: 16, WorkerThreads: 4, RecordBytes: 512, ComputeSecPerGiB: 2},
		{Pipeline: sessions, InputBytes: 2 << 30, NumWorkers: 16, WorkerThreads: 4, RecordBytes: 256, ComputeSecPerGiB: 4},
	}

	// Phase 1 — offline: run both pipelines all-HDD to collect history,
	// then train the BYOM category model on the realized shuffle jobs.
	cm := byom.DefaultCostModel()
	historyJobs := collect(specs, dfs.StaticDecider(false), nil, 60)
	// Two pipelines yield a small history: use a coarse 5-category
	// model with small leaves (a per-workload model can be tiny —
	// that is the point of BYOM).
	opts := byom.DefaultTrainOptions()
	opts.NumCategories = 5
	opts.GBDT.NumRounds = 30
	opts.GBDT.MinSamplesLeaf = 5
	model, err := byom.TrainCategoryModel(historyJobs, cm, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline phase: trained on %d historical shuffle jobs\n", len(historyJobs))

	// Phase 2 — online: a small SSD cache, Algorithm 1 at the caching
	// servers, model hints from inside the framework.
	decider, err := dfs.NewAdaptiveDecider(core.DefaultAdaptiveConfig(model.NumCategories()))
	if err != nil {
		log.Fatal(err)
	}
	hinter := model.Hinter()
	collectWithReport(specs, decider, hinter, 12, 64<<30, cm)
}

// collect runs each spec n times against a fresh all-HDD cluster and
// returns the realized shuffle jobs.
func collect(specs []dataflow.WorkloadSpec, decider dfs.Decider, hinter dataflow.Hinter, n int) []*byom.Job {
	cluster, err := dfs.NewCluster(0, decider)
	if err != nil {
		log.Fatal(err)
	}
	var jobs []*byom.Job
	runRounds(dataflow.NewExecutor(dfs.NewClient(cluster), hinter), specs, n,
		func(_ dataflow.WorkloadSpec, rep *dataflow.Report) {
			for _, rec := range rep.Shuffles {
				jobs = append(jobs, rec.Job)
			}
		})
	return jobs
}

// collectWithReport runs the online phase and prints per-pipeline
// placement and savings.
func collectWithReport(specs []dataflow.WorkloadSpec, decider dfs.Decider,
	hinter dataflow.Hinter, n int, ssdBytes float64, cm *byom.CostModel) {
	cluster, err := dfs.NewCluster(ssdBytes, decider)
	if err != nil {
		log.Fatal(err)
	}
	type agg struct {
		jobs     int
		onSSD    float64
		tcoBase  float64
		tcoSaved float64
	}
	byPipeline := map[string]*agg{}
	runRounds(dataflow.NewExecutor(dfs.NewClient(cluster), hinter), specs, n,
		func(spec dataflow.WorkloadSpec, rep *dataflow.Report) {
			for _, rec := range rep.Shuffles {
				a := byPipeline[spec.Pipeline.Name]
				if a == nil {
					a = &agg{}
					byPipeline[spec.Pipeline.Name] = a
				}
				a.jobs++
				a.onSSD += rec.FracOnSSD
				a.tcoBase += cm.TCOHDD(rec.Job)
				a.tcoSaved += cm.PartialSavings(rec.Job, byom.FullResidency(rec.FracOnSSD))
			}
		})
	fmt.Printf("\nonline phase (%.0f GiB SSD cache):\n", ssdBytes/(1<<30))
	for _, spec := range specs {
		name := spec.Pipeline.Name
		a := byPipeline[name]
		fmt.Printf("  %-12s %3d shuffle jobs, mean SSD fraction %.2f, TCO savings %.2f%%\n",
			name, a.jobs, a.onSSD/float64(a.jobs), 100*a.tcoSaved/a.tcoBase)
	}
	m := cluster.Metrics()
	fmt.Printf("  cluster: %d spillover events, %.1f GiB written to SSD (wear)\n",
		m.SpilloverEvents, m.BytesWrittenSSD/(1<<30))
}

// runRounds starts n rounds of the specs, one execution every 600
// virtual seconds, as processes of one discrete-event scheduler, so
// executions that outlast the gap overlap on the cluster. done gets
// each report as its execution finishes.
func runRounds(ex *dataflow.Executor, specs []dataflow.WorkloadSpec, n int,
	done func(dataflow.WorkloadSpec, *dataflow.Report)) {
	des := desched.New()
	at := 0.0
	for round := 0; round < n; round++ {
		for _, spec := range specs {
			des.Spawn(at, func(p *desched.Proc) {
				rep, err := ex.Run(spec, p)
				if err != nil {
					log.Fatal(err)
				}
				done(spec, rep)
			})
			at += 600
		}
	}
	des.Run()
}
