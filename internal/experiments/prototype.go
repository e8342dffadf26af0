package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/desched"
	"repro/internal/dfs"
	"repro/internal/trace"
)

// The prototype experiments (RQ1, Fig. 5 / Appendix C.1 Figs. 13-14)
// run the real integration path instead of the trace simulator: data
// processing pipelines execute against the dfs substrate, the BYOM
// model produces hints inside the framework, and the caching servers'
// Algorithm 1 controller makes placement decisions.

// protoExecution is one scheduled pipeline run.
type protoExecution struct {
	spec    dataflow.WorkloadSpec
	startAt float64
	class   string // "framework" or "non-framework"
	// nonFramework direct-I/O workloads bypass the dataflow executor.
	nonFW *nonFrameworkWorkload
}

// nonFrameworkWorkload is a conventional workload using the storage
// client directly (Appendix C.1): ML checkpointing (HDD-suitable) or
// compress-upload-delete temp files (SSD-suitable).
type nonFrameworkWorkload struct {
	name      string
	fileBytes float64
	holdSec   float64
	readBack  float64 // bytes read per byte written
	readOp    float64
	category  int // the workload's own trivial model: a constant hint
	hot       bool
}

// protoSchedule holds a full deployment schedule.
type protoSchedule struct {
	execs []protoExecution
}

// frameworkPipelines builds the paper's 16 prototype pipelines: half
// perform few shuffles over large sequential data (HDD-suitable), half
// are join-heavy queries re-reading hot data (SSD-suitable).
func frameworkPipelines() ([]*dataflow.Pipeline, []dataflow.WorkloadSpec, error) {
	var pipes []*dataflow.Pipeline
	var specs []dataflow.WorkloadSpec
	for i := 0; i < 16; i++ {
		hddSuitable := i < 8
		var p *dataflow.Pipeline
		var err error
		var input float64
		// Per-pipeline intensity factors spread the deployment across a
		// continuum of I/O densities (the paper: "a wide range of I/O
		// workloads with different intensity and throughput"), which is
		// what gives the quantile categories and the adaptive threshold
		// a smooth dial to work with.
		k := float64(i%8) / 2
		if hddSuitable {
			// Batch log compaction: one large sequential shuffle plus a
			// small write-heavy summary shuffle. Both are HDD-suitable;
			// the small one is the FirstFit trap — it fits in tight
			// caches but wears the SSD for nothing.
			name := fmt.Sprintf("batchlogs%02d", i)
			big := dataflow.ShuffleProfile{
				SizeFactor: 1, WriteAmp: 1.8 + 0.5*k, ReadFactor: 0.3 + 0.3*k,
				ReadOpBytes: (2 + k) * (1 << 20), CacheHitFrac: 0.45 + 0.03*k,
				RetainSec: (3 + k) * 3600,
			}
			small := dataflow.ShuffleProfile{
				SizeFactor: 1, WriteAmp: 2.6 + 0.4*k, ReadFactor: 0.2 + 0.15*k,
				ReadOpBytes: 2 << 20, CacheHitFrac: 0.5,
				RetainSec: 2 * 3600,
			}
			input = (0.7 + 0.4*k) * (1 << 30)
			p, err = dataflow.NewPipeline(name, fmt.Sprintf("protouser%02d", i/2)).
				ParDo("ingest").
				GroupByKey("shuffle-big", big).
				ParDoScale("summarize", 0.08).
				GroupByKey("shuffle-small", small).
				Build()
		} else {
			// Join-heavy queries: hot random re-reads, SSD-suitable,
			// spanning a 5x intensity range across pipelines.
			name := fmt.Sprintf("hotquery%02d", i)
			hot := dataflow.ShuffleProfile{
				SizeFactor: 0.8, WriteAmp: 1.2 + 0.1*k, ReadFactor: 5 + 9*k,
				ReadOpBytes: (32 + 32*k) * 1024, CacheHitFrac: 0.1 + 0.05*k,
			}
			input = (0.3 + 0.25*k) * (1 << 30)
			p, err = dataflow.NewPipeline(name, fmt.Sprintf("protouser%02d", i/2)).
				ParDo("ingest").
				GroupByKey("shuffle-a", hot).
				ParDoScale("transform", 0.7).
				GroupByKey("shuffle-b", hot).
				Build()
		}
		if err != nil {
			return nil, nil, err
		}
		pipes = append(pipes, p)
		specs = append(specs, dataflow.WorkloadSpec{
			Pipeline:      p,
			InputBytes:    input,
			NumWorkers:    20, // 16 pipelines x 20 = 320 worker servers
			WorkerThreads: 4,
			RecordBytes:   1024,
			// Pipelines are compute-bound, as in the paper: storage
			// placement must not be their bottleneck (Fig. 14 measures
			// the opportunistic speedup on top). The rate makes one
			// execution span many arrival periods, so intermediate
			// files of concurrent executions contend for the cache.
			ComputeSecPerGiB: 28800,
		})
	}
	return pipes, specs, nil
}

// buildFig5Schedule produces the paper's prototype scale: 16 pipelines
// and 1024 shuffle jobs (each execution has 2 shuffles -> 512
// executions, 64 per pipeline pair).
func buildFig5Schedule(seed int64) (*protoSchedule, error) {
	_, specs, err := frameworkPipelines()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	sched := &protoSchedule{}
	const executionsPerPipeline = 32
	for pi, spec := range specs {
		period := 110.0 + rng.Float64()*50
		phase := rng.Float64() * period
		for k := 0; k < executionsPerPipeline; k++ {
			at := phase + float64(k)*period + rng.NormFloat64()*60
			if at < 0 {
				at = 0
			}
			// Per-execution input jitter.
			s := spec
			s.InputBytes *= 0.7 + rng.Float64()*0.6
			sched.execs = append(sched.execs, protoExecution{
				spec: s, startAt: at, class: "framework",
			})
			_ = pi
		}
	}
	sched.sort()
	return sched, nil
}

func (s *protoSchedule) sort() {
	sort.SliceStable(s.execs, func(a, b int) bool { return s.execs[a].startAt < s.execs[b].startAt })
}

// deployment runs a schedule against a fresh cluster and accounts
// savings with the cost model.
type deploymentResult struct {
	records   []dataflow.ShuffleRecord
	classOf   map[string]string    // job id -> workload class
	runtimes  map[string][]float64 // class -> execution runtimes
	peakSSD   float64
	wearBytes float64
}

// runDeployment executes the schedule under a discrete-event scheduler
// so that concurrent executions' files contend for SSD space at the
// correct virtual instants. decider drives the caching servers; hinter
// is the application-layer model (nil for baselines).
func runDeployment(sched *protoSchedule, ssdCapacity float64, decider dfs.Decider,
	hinter dataflow.Hinter) (*deploymentResult, error) {
	cluster, err := dfs.NewCluster(ssdCapacity, decider)
	if err != nil {
		return nil, err
	}
	if fd, ok := decider.(*dfs.FitDecider); ok {
		fd.Bind(cluster)
	}
	client := dfs.NewClient(cluster)
	ex := dataflow.NewExecutor(client, hinter)

	res := &deploymentResult{
		classOf:  map[string]string{},
		runtimes: map[string][]float64{},
	}
	des := desched.New()
	var firstErr error
	nfwSeq := 0
	for _, e := range sched.execs {
		e := e
		err := des.Spawn(e.startAt, func(p *desched.Proc) {
			if firstErr != nil {
				return
			}
			if e.nonFW != nil {
				rec, runtime, err := runNonFramework(client, e.nonFW, p, &nfwSeq)
				if err != nil {
					firstErr = err
					return
				}
				res.records = append(res.records, *rec)
				res.classOf[rec.Job.ID] = e.class
				res.runtimes[e.class] = append(res.runtimes[e.class], runtime)
				return
			}
			rep, err := ex.Run(e.spec, p)
			if err != nil {
				firstErr = err
				return
			}
			for _, rec := range rep.Shuffles {
				res.records = append(res.records, rec)
				res.classOf[rec.Job.ID] = e.class
			}
			res.runtimes[e.class] = append(res.runtimes[e.class], rep.Runtime())
		})
		if err != nil {
			return nil, err
		}
	}
	des.Run()
	if firstErr != nil {
		return nil, firstErr
	}
	m := cluster.Metrics()
	res.peakSSD = m.SSDPeakUsed
	res.wearBytes = m.BytesWrittenSSD
	return res, nil
}

// runNonFramework executes one direct-I/O workload iteration as a
// scheduled process: write, read back, hold, delete.
func runNonFramework(client *dfs.Client, w *nonFrameworkWorkload,
	p *desched.Proc, seq *int) (*dataflow.ShuffleRecord, float64, error) {
	*seq++
	startAt := p.Now()
	id := fmt.Sprintf("%s-%06d", w.name, *seq)
	h, err := client.Create(id+".dat", w.fileBytes,
		dfs.Hint{JobID: id, Category: w.category, SizeBytes: w.fileBytes}, startAt)
	if err != nil {
		return nil, 0, err
	}
	frac, err := h.FracOnSSD()
	if err != nil {
		return nil, 0, err
	}
	opSize := 1 << 20
	wdone, err := h.Write(startAt, w.fileBytes, float64(opSize))
	if err != nil {
		return nil, 0, err
	}
	p.WaitUntil(wdone)
	readBytes := w.fileBytes * w.readBack
	rdone := wdone
	if readBytes > 0 {
		rdone, err = h.Read(wdone, readBytes, w.readOp, 0.2)
		if err != nil {
			return nil, 0, err
		}
		p.WaitUntil(rdone)
	}
	end := rdone + w.holdSec
	p.WaitUntil(end)
	if err := h.Delete(); err != nil {
		return nil, 0, err
	}

	job := &trace.Job{
		ID:               id,
		User:             w.name,
		Pipeline:         w.name,
		Step:             "direct",
		ArrivalSec:       startAt,
		LifetimeSec:      end - startAt,
		SizeBytes:        w.fileBytes,
		ReadBytes:        readBytes,
		WriteBytes:       w.fileBytes,
		AvgReadSizeBytes: w.readOp,
		CacheHitFrac:     0.2,
	}
	return &dataflow.ShuffleRecord{
		Job: job, Category: w.category, FracOnSSD: frac,
		StartedAt: startAt, FinishedAt: rdone,
	}, rdone - startAt, nil
}

// accountSavings converts deployment records into TCO/TCIO savings
// percentages per workload class using the cost model.
func accountSavings(res *deploymentResult, cm *cost.Model) map[string]*classSavings {
	out := map[string]*classSavings{}
	for _, rec := range res.records {
		class := res.classOf[rec.Job.ID]
		cs := out[class]
		if cs == nil {
			cs = &classSavings{}
			out[class] = cs
		}
		cs.totalTCO += cm.TCOHDD(rec.Job)
		cs.totalTCIO += cm.TCIO(rec.Job)
		po := cost.PartialOutcome{FracOnSSD: rec.FracOnSSD, ResidencyFrac: 1}
		cs.savedTCO += cm.PartialSavings(rec.Job, po)
		cs.savedTCIO += cm.PartialTCIOSaved(rec.Job, po)
	}
	return out
}

type classSavings struct {
	totalTCO, totalTCIO float64
	savedTCO, savedTCIO float64
}

func (c *classSavings) tcoPct() float64 {
	if c.totalTCO <= 0 {
		return 0
	}
	return 100 * c.savedTCO / c.totalTCO
}

func (c *classSavings) tcioPct() float64 {
	if c.totalTCIO <= 0 {
		return 0
	}
	return 100 * c.savedTCIO / c.totalTCIO
}

// trainPrototypeModel runs the schedule against an all-HDD cluster
// (offline historical execution), then trains the category model on
// the realized shuffle jobs — the paper's offline phase. The all-HDD
// deployment result is returned too: it is the runtime baseline the
// paper measures application performance against.
func trainPrototypeModel(sched *protoSchedule, opts Options, cm *cost.Model) (*core.CategoryModel, float64, *deploymentResult, error) {
	warm, err := runDeployment(sched, 0, dfs.StaticDecider(false), nil)
	if err != nil {
		return nil, 0, nil, err
	}
	jobs := make([]*trace.Job, 0, len(warm.records))
	for _, rec := range warm.records {
		jobs = append(jobs, rec.Job)
	}
	// Peak usage under no quota: rerun with everything on a boundless
	// SSD to measure the theoretical peak (paper Section 5.1).
	unlimited, err := runDeployment(sched, 1e18, dfs.StaticDecider(true), nil)
	if err != nil {
		return nil, 0, nil, err
	}
	model, err := TrainModelOn(jobs, cm, opts)
	if err != nil {
		return nil, 0, nil, err
	}
	return model, unlimited.peakSSD, warm, nil
}

// runQuotas trains the prototype model on sched, then runs the FirstFit
// fit-decider deployment (no model hints) and the AdaptiveRanking
// deployment (Algorithm 1 at the caching servers, model hints from the
// framework) at 1% and 20% of peak SSD usage. It hands each pair to
// each along with the all-HDD training run, and returns the peak.
func runQuotas(sched *protoSchedule, opts Options, cm *cost.Model,
	each func(frac float64, ff, ar, hdd *deploymentResult) error) (float64, error) {
	model, peak, hdd, err := trainPrototypeModel(sched, opts, cm)
	if err != nil {
		return 0, err
	}
	for _, frac := range []float64{0.01, 0.20} {
		quota := peak * frac
		ff, err := runDeployment(sched, quota, &dfs.FitDecider{}, nil)
		if err != nil {
			return 0, err
		}
		ad, err := dfs.NewAdaptiveDecider(prototypeAdaptiveConfig(model.NumCategories()))
		if err != nil {
			return 0, err
		}
		ar, err := runDeployment(sched, quota, ad, model.Hinter())
		if err != nil {
			return 0, err
		}
		if err := each(frac, ff, ar, hdd); err != nil {
			return 0, err
		}
	}
	return peak, nil
}

// prototypeAdaptiveConfig is Algorithm 1 as the prototype's caching
// servers run it. The deployment horizon is hours, not a week, so the
// controller runs on a faster cycle than the simulation default.
func prototypeAdaptiveConfig(numCategories int) core.AdaptiveConfig {
	cfg := core.DefaultAdaptiveConfig(numCategories)
	cfg.DecisionIntervalSec = 120
	cfg.LookBackSec = 900
	cfg.SpilloverLow = 0.05
	cfg.SpilloverHigh = 0.35
	return cfg
}

// Fig5Result reproduces Figure 5: prototype TCIO/TCO savings of
// AdaptiveRanking vs FirstFit at 1% and 20% of peak space usage.
type Fig5Result struct {
	NumShuffleJobs int
	PeakSSDBytes   float64
	Rows           []Fig5Row
}

// Fig5Row is one quota setting.
type Fig5Row struct {
	QuotaFrac    float64
	RankingTCO   float64
	FirstFitTCO  float64
	RankingTCIO  float64
	FirstFitTCIO float64
}

// Fig5 runs the full prototype experiment.
func Fig5(opts Options) (*Fig5Result, error) {
	sched, err := buildFig5Schedule(opts.Seed)
	if err != nil {
		return nil, err
	}
	cm := cost.Default()
	res := &Fig5Result{}
	res.PeakSSDBytes, err = runQuotas(sched, opts, cm, func(frac float64, ff, ar, _ *deploymentResult) error {
		res.NumShuffleJobs = len(ar.records)
		ffS := accountSavings(ff, cm)["framework"]
		arS := accountSavings(ar, cm)["framework"]
		res.Rows = append(res.Rows, Fig5Row{
			QuotaFrac:    frac,
			RankingTCO:   arS.tcoPct(),
			FirstFitTCO:  ffS.tcoPct(),
			RankingTCIO:  arS.tcioPct(),
			FirstFitTCIO: ffS.tcioPct(),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render writes the prototype comparison.
func (r *Fig5Result) Render(w io.Writer) {
	ratio := func(ours, base float64) string {
		if base <= 0 {
			return "inf"
		}
		return fmt.Sprintf("%.2fx", ours/base)
	}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", row.QuotaFrac*100),
			fmt.Sprintf("%.3f", row.RankingTCO),
			fmt.Sprintf("%.3f", row.FirstFitTCO),
			ratio(row.RankingTCO, row.FirstFitTCO),
			fmt.Sprintf("%.3f", row.RankingTCIO),
			fmt.Sprintf("%.3f", row.FirstFitTCIO),
			ratio(row.RankingTCIO, row.FirstFitTCIO),
		})
	}
	Table(w, fmt.Sprintf("Fig 5 — prototype deployment (%d shuffle jobs, peak %.2f TiB)",
		r.NumShuffleJobs, r.PeakSSDBytes/(1<<40)),
		[]string{"quota", "AR TCO%", "FF TCO%", "ratio", "AR TCIO%", "FF TCIO%", "ratio"}, rows)
	fmt.Fprintf(w, "paper: 4.38x TCO at 1%% quota, 1.77x at 20%%; TCIO 3.90x / 1.69x\n")
}
