// Mixedworkloads: the Appendix C.1 scenario — framework pipelines and
// conventional (non-framework) workloads sharing one SSD cache, each
// bringing its own model.
//
// The point of the example is the B in BYOM: the data processing
// pipelines bring a trained gradient-boosted-trees ranking model, while
// the ML-checkpointing and compress-upload-delete workloads bring
// trivial constant-category models ("we are cold" / "we are hot") —
// and the storage layer treats all hints uniformly. Every execution and
// every direct-I/O file is a discrete-event process, so they contend for
// the cache at the right virtual instants. Like logpipeline it drives
// the internal substrates directly.
//
// Run with: go run ./examples/mixedworkloads
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

const numCategories = 15

func main() {
	// The framework side: one query pipeline with a learned model.
	queries, err := dataflow.NewPipeline("adhocquery", "analyst").
		ParDo("scan").
		GroupByKey("join", dataflow.ShuffleProfile{
			SizeFactor: 1, WriteAmp: 1.4, ReadFactor: 12,
			ReadOpBytes: 64 * 1024, CacheHitFrac: 0.2,
		}).
		ParDo("aggregate").
		Build()
	if err != nil {
		log.Fatal(err)
	}
	spec := dataflow.WorkloadSpec{
		Pipeline: queries, InputBytes: 6 << 30,
		NumWorkers: 12, WorkerThreads: 4, RecordBytes: 512, ComputeSecPerGiB: 3,
	}

	// Offline: collect history all-HDD and train the pipeline's model.
	cm := byom.DefaultCostModel()
	warmCluster, err := dfs.NewCluster(0, dfs.StaticDecider(false))
	if err != nil {
		log.Fatal(err)
	}
	warmEx := dataflow.NewExecutor(dfs.NewClient(warmCluster), nil)
	var history []*byom.Job
	warm := desched.New()
	for i := 0; i < 30; i++ {
		warm.Spawn(float64(i)*700, func(p *desched.Proc) {
			rep, err := warmEx.Run(spec, p)
			if err != nil {
				log.Fatal(err)
			}
			for _, rec := range rep.Shuffles {
				history = append(history, rec.Job)
			}
		})
	}
	warm.Run()
	opts := byom.DefaultTrainOptions()
	opts.NumCategories = numCategories
	opts.GBDT.NumRounds = 20
	model, err := byom.TrainCategoryModel(history, cm, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("framework model trained on %d shuffle jobs\n", len(history))

	// Online: one shared cache, Algorithm 1 at the caching servers.
	decider, err := dfs.NewAdaptiveDecider(core.DefaultAdaptiveConfig(numCategories))
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := dfs.NewCluster(96<<30, decider)
	if err != nil {
		log.Fatal(err)
	}
	client := dfs.NewClient(cluster)
	ex := dataflow.NewExecutor(client, model.Hinter())

	// Non-framework workloads: each brings its own (trivial) model, and
	// each file is a process that writes, reads back, waits out its hold
	// and deletes.
	type direct struct {
		name     string
		bytes    float64
		holdSec  float64
		readBack float64
		readOp   float64
		category int // the workload's own model output
	}
	checkpoints := direct{"mlckpt", 12 << 30, 4 * 3600, 0.05, 8 << 20, 0}
	tempfiles := direct{"compress", 1 << 30, 180, 3, 128 * 1024, numCategories - 1}
	var ckptFrac, tmpFrac float64
	var ckptN, tmpN int
	runDirect := func(w direct, id string, p *desched.Proc) error {
		h, err := client.Create(id, w.bytes,
			dfs.Hint{JobID: id, Category: w.category, SizeBytes: w.bytes}, p.Now())
		if err != nil {
			return err
		}
		frac, _ := h.FracOnSSD()
		if w.name == "mlckpt" {
			ckptFrac += frac
			ckptN++
		} else {
			tmpFrac += frac
			tmpN++
		}
		wdone, err := h.Write(p.Now(), w.bytes, 1<<20)
		if err != nil {
			return err
		}
		p.WaitUntil(wdone)
		if w.readBack > 0 {
			if _, err := h.Read(wdone, w.bytes*w.readBack, w.readOp, 0.2); err != nil {
				return err
			}
		}
		p.WaitUntil(wdone + w.holdSec)
		return h.Delete()
	}

	// Each round starts a framework execution, an ML checkpoint and a
	// temp file at the same virtual instant.
	des := desched.New()
	for round := 0; round < 30; round++ {
		at := float64(round) * 700
		des.Spawn(at, func(p *desched.Proc) {
			if _, err := ex.Run(spec, p); err != nil {
				log.Fatal(err)
			}
		})
		for _, w := range []direct{checkpoints, tempfiles} {
			des.Spawn(at, func(p *desched.Proc) {
				if err := runDirect(w, fmt.Sprintf("%s-%03d", w.name, round), p); err != nil {
					log.Fatal(err)
				}
			})
		}
	}
	des.Run()

	m := cluster.Metrics()
	fmt.Printf("\nshared cache after %d rounds (ACT ended at %d):\n", 30, decider.ACT())
	fmt.Printf("  ML checkpoints (hint=0):      mean SSD fraction %.2f over %d files\n", ckptFrac/float64(ckptN), ckptN)
	fmt.Printf("  compress temp files (hint=%d): mean SSD fraction %.2f over %d files\n",
		numCategories-1, tmpFrac/float64(tmpN), tmpN)
	fmt.Printf("  spillover events: %d, SSD peak used: %.1f GiB, wear: %.1f GiB written\n",
		m.SpilloverEvents, m.SSDPeakUsed/(1<<30), m.BytesWrittenSSD/(1<<30))
	fmt.Println("\nthe cold workload's files stayed on HDD; the hot ones rode the SSD cache —")
	fmt.Println("without the storage layer knowing anything about either workload.")
}
