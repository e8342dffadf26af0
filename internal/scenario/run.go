package scenario

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/online"
	"repro/internal/policy"
	"repro/internal/rebalance"
	"repro/internal/registry"
	"repro/internal/rpc/wire"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Stats is a scenario run's machine-readable measurement record: the
// threshold gate checks it and the bench history archives it. TCO /
// TCIO / Retrains / Swaps are deterministic in the spec; JobsPerSec,
// P99Ms and WallMs are wall-clock measurements and are excluded from
// golden reports and the determinism contract.
type Stats struct {
	// Jobs is the evaluated job count (test-half jobs; fleet: total
	// test jobs across clusters).
	Jobs int `json:"jobs"`
	// TCOPct / TCIOPct are the run's savings vs the all-HDD baseline.
	TCOPct  float64 `json:"tco_pct"`
	TCIOPct float64 `json:"tcio_pct"`
	// Retrains / Swaps count online-loop activity (0 elsewhere).
	Retrains int64 `json:"retrains"`
	Swaps    int64 `json:"swaps"`
	// JobsPerSec is evaluated jobs over the run's wall time.
	JobsPerSec float64 `json:"jobs_per_sec"`
	// P99Ms is the p99 per-decision latency in ms (serve pipeline; 0
	// where not measured).
	P99Ms float64 `json:"p99_ms"`
	// WallMs is the run's wall time in ms.
	WallMs float64 `json:"wall_ms"`
}

// RunResult is one executed scenario: the deterministic rendered
// report plus the measured stats.
type RunResult struct {
	Report []byte
	Stats  Stats
}

// Execute runs a validated spec through its pipeline and renders the
// report. The report bytes are deterministic in the spec; Stats
// additionally carries the wall-clock measurements.
func Execute(spec *Spec) (*RunResult, error) {
	start := time.Now()
	var (
		res *RunResult
		err error
	)
	switch spec.Pipeline {
	case PipelineSim:
		res, err = runSim(spec)
	case PipelineServe:
		res, err = runServe(spec)
	case PipelineOnline:
		res, err = runOnline(spec)
	case PipelineFleet:
		res, err = runFleet(spec)
	case PipelineRebalance:
		res, err = runRebalance(spec)
	default:
		err = fmt.Errorf("scenario %s: unknown pipeline %q", spec.Name, spec.Pipeline)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	wall := time.Since(start)
	res.Stats.WallMs = float64(wall.Microseconds()) / 1000
	if wall > 0 {
		res.Stats.JobsPerSec = float64(res.Stats.Jobs) / wall.Seconds()
	}
	return res, nil
}

// env is the shared setup of the trace-driven pipelines: the merged
// generated trace split at the spec's cut, a model trained on the
// first part, and the quota sized off the test half's peak.
type env struct {
	train, test *trace.Trace
	model       *core.CategoryModel
	cm          *cost.Model
	quota       float64
}

// trainSeed resolves the training seed: the fleet seed, else the first
// segment's.
func (s *Spec) trainSeed() int64 {
	if s.Fleet != nil {
		return s.Fleet.Seed
	}
	return s.Trace.Segments[0].Seed
}

// trainOptions maps TrainSpec onto core training options.
func (s *Spec) trainOptions() core.TrainOptions {
	topts := core.DefaultTrainOptions()
	topts.NumCategories = s.Train.categories()
	topts.GBDT.NumRounds = s.Train.rounds()
	topts.GBDT.Seed = s.trainSeed()
	return topts
}

// buildSegment realizes one segment spec as a generated, time-shifted
// trace.
func buildSegment(g *SegmentSpec, idx int) *trace.Trace {
	cfg := trace.DefaultGeneratorConfig(g.cluster(idx), g.Seed)
	cfg.NumUsers = g.Users
	cfg.DurationSec = g.Days * 24 * 3600
	cfg.MinSteps, cfg.MaxSteps = g.MinSteps, g.MaxSteps
	if g.Weights != nil {
		cfg.ArchetypeWeights = g.Weights
	}
	if g.LoadScale > 0 {
		cfg.LoadScale = g.LoadScale
	}
	seg := trace.NewGenerator(cfg).Generate()
	if g.OffsetDays > 0 {
		seg.Shift(g.OffsetDays * 24 * 3600)
	}
	return seg
}

// buildEnv generates the spec's segments, merges them on the shared
// timeline, splits train/test at the spec's cut and trains the model.
func buildEnv(spec *Spec) (*env, error) {
	ts := spec.Trace
	merged := &trace.Trace{Cluster: spec.Name}
	for i := range ts.Segments {
		seg := buildSegment(&ts.Segments[i], i)
		merged.Jobs = append(merged.Jobs, seg.Jobs...)
	}
	merged.Sort()
	cut := ts.splitFrac() * ts.totalDays() * 24 * 3600
	train, test := merged.SplitAt(cut)
	if len(train.Jobs) == 0 || len(test.Jobs) == 0 {
		return nil, fmt.Errorf("degenerate split at %.2fd: %d train / %d test jobs",
			cut/86400, len(train.Jobs), len(test.Jobs))
	}
	cm := cost.Default()
	model, err := core.TrainCategoryModel(train.Jobs, cm, spec.trainOptions())
	if err != nil {
		return nil, fmt.Errorf("training model: %w", err)
	}
	return &env{
		train: train,
		test:  test,
		model: model,
		cm:    cm,
		quota: test.PeakSSDUsage() * spec.Run.quotaFrac(),
	}, nil
}

// writeHeader renders the deterministic report preamble shared by the
// trace-driven pipelines.
func (e *env) writeHeader(b *bytes.Buffer, spec *Spec) {
	writeTitle(b, spec)
	ts := spec.Trace
	fmt.Fprintf(b, "trace: %d segment(s), %.2f days, split at %.2fd\n",
		len(ts.Segments), ts.totalDays(), ts.splitFrac()*ts.totalDays())
	fmt.Fprintf(b, "jobs: %d train / %d test\n", len(e.train.Jobs), len(e.test.Jobs))
	fmt.Fprintf(b, "quota: %.1f%% of test peak = %.3f GiB\n",
		spec.Run.quotaFrac()*100, e.quota/(1<<30))
	fmt.Fprintf(b, "model: %d categories, %d rounds, seed %d\n",
		spec.Train.categories(), spec.Train.rounds(), spec.trainSeed())
}

func writeTitle(b *bytes.Buffer, spec *Spec) {
	fmt.Fprintf(b, "scenario: %s (%s)\n", spec.Name, spec.Pipeline)
	if spec.Description != "" {
		fmt.Fprintf(b, "%s\n", spec.Description)
	}
}

// runSim replays the test half through the Algorithm 1 ranking policy
// and the model-free FirstFit floor.
func runSim(spec *Spec) (*RunResult, error) {
	e, err := buildEnv(spec)
	if err != nil {
		return nil, err
	}
	p, err := policy.NewAdaptiveRanking(e.model, e.cm, core.DefaultAdaptiveConfig(e.model.NumCategories()))
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(e.test, p, e.cm, sim.Config{SSDQuota: e.quota, KeepRecords: true})
	if err != nil {
		return nil, err
	}
	ff, err := sim.Run(e.test, policy.FirstFit{}, e.cm, sim.Config{SSDQuota: e.quota})
	if err != nil {
		return nil, err
	}
	wanted := 0
	for i := range res.Records {
		if res.Records[i].Outcome.WantedSSD {
			wanted++
		}
	}
	var b bytes.Buffer
	e.writeHeader(&b, spec)
	fmt.Fprintf(&b, "\nranking:  TCO %.3f%%  TCIO %.3f%%\n", res.TCOSavingsPercent(), res.TCIOSavingsPercent())
	fmt.Fprintf(&b, "firstfit: TCO %.3f%%  TCIO %.3f%%\n", ff.TCOSavingsPercent(), ff.TCIOSavingsPercent())
	fmt.Fprintf(&b, "ssd requested: %d of %d jobs (%.1f%%)\n",
		wanted, len(e.test.Jobs), 100*float64(wanted)/float64(len(e.test.Jobs)))
	fmt.Fprintf(&b, "ssd peak used: %.1f%% of quota\n", 100*res.SSDPeakUsed/e.quota)
	return &RunResult{
		Report: b.Bytes(),
		Stats: Stats{
			Jobs:    len(e.test.Jobs),
			TCOPct:  res.TCOSavingsPercent(),
			TCIOPct: res.TCIOSavingsPercent(),
		},
	}, nil
}

// The rebalance pipeline solves every virtual hour with a 6-hour heat
// half-life, and the online loop retrains only on a window of at least
// retrainMinJobs records, which is also its drift trigger's sample floor.
const (
	rebalanceSec    float64 = 3600
	heatHalfLifeSec float64 = 6 * 3600
	retrainMinJobs          = 150
)

// runRebalance replays the test half twice through the Algorithm 1
// write-time ranking policy: once bare, once wrapped in the
// heat-aware global rebalancer (knapsack residency plan, demotions
// and early evictions). The report shows both runs and the
// rebalancer's solver counters; Stats carries the rebalanced run.
func runRebalance(spec *Spec) (*RunResult, error) {
	e, err := buildEnv(spec)
	if err != nil {
		return nil, err
	}
	newRanking := func() (sim.Policy, error) {
		return policy.NewAdaptiveRanking(e.model, e.cm, core.DefaultAdaptiveConfig(e.model.NumCategories()))
	}
	plainPolicy, err := newRanking()
	if err != nil {
		return nil, err
	}
	plain, err := sim.Run(e.test, plainPolicy, e.cm, sim.Config{SSDQuota: e.quota})
	if err != nil {
		return nil, err
	}
	inner, err := newRanking()
	if err != nil {
		return nil, err
	}
	reb := rebalance.New(inner, e.cm, rebalance.Config{
		HalfLifeSec:      heatHalfLifeSec,
		SolveIntervalSec: rebalanceSec,
	})
	res, err := sim.Run(e.test, reb, e.cm, sim.Config{SSDQuota: e.quota})
	if err != nil {
		return nil, err
	}
	st := reb.Stats()
	var b bytes.Buffer
	e.writeHeader(&b, spec)
	fmt.Fprintf(&b, "rebalance: solve every %.2fh, heat half-life %.2fh\n",
		rebalanceSec/3600, heatHalfLifeSec/3600)
	fmt.Fprintf(&b, "\nwrite-time only:      TCO %.3f%%  TCIO %.3f%%\n",
		plain.TCOSavingsPercent(), plain.TCIOSavingsPercent())
	fmt.Fprintf(&b, "write-time+rebalance: TCO %.3f%%  TCIO %.3f%%\n",
		res.TCOSavingsPercent(), res.TCIOSavingsPercent())
	fmt.Fprintf(&b, "rebalance win: %+.3f TCO points\n",
		res.TCOSavingsPercent()-plain.TCOSavingsPercent())
	fmt.Fprintf(&b, "solver: %d solves, %d workloads planned of %d seen\n",
		st.Solves, st.Planned, st.Workloads)
	fmt.Fprintf(&b, "actions: %d demotions, %d early evictions over %d observations\n",
		st.Demotions, st.Evictions, st.Observations)
	return &RunResult{
		Report: b.Bytes(),
		Stats: Stats{
			Jobs:    len(e.test.Jobs),
			TCOPct:  res.TCOSavingsPercent(),
			TCIOPct: res.TCIOSavingsPercent(),
		},
	}, nil
}

// timed is a Placer that records each Place call's wall latency for
// the serve scenarios' p99 stat.
type timed struct {
	online.Placer
	latMs []float64
}

func (p *timed) Place(ctx context.Context, jobs []*trace.Job) ([]wire.Decision, error) {
	start := time.Now()
	ds, err := p.Placer.Place(ctx, jobs)
	p.latMs = append(p.latMs, float64(time.Since(start).Microseconds())/1000)
	return ds, err
}

// newServer stands up a registry + server pair serving the env's model.
func newServer(spec *Spec, e *env) (*registry.Registry, *serve.Server, error) {
	reg := registry.New()
	if _, err := reg.Publish(spec.Name, e.model, 0); err != nil {
		return nil, nil, err
	}
	srv, err := serve.New(reg, spec.Name, e.cm, serve.DefaultConfig(e.model.NumCategories()))
	if err != nil {
		return nil, nil, err
	}
	return reg, srv, nil
}

// runServe replays the test half through the frozen model behind the
// sharded batching server — the serving seam without learning.
func runServe(spec *Spec) (*RunResult, error) {
	e, err := buildEnv(spec)
	if err != nil {
		return nil, err
	}
	_, srv, err := newServer(spec, e)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	lp := &timed{Placer: online.Local(srv)}
	res, err := online.RunLoop(e.test, lp, nil, e.cm, sim.Config{SSDQuota: e.quota})
	if err != nil {
		return nil, err
	}
	st := srv.Stats()
	var b bytes.Buffer
	e.writeHeader(&b, spec)
	fmt.Fprintf(&b, "\ndecisions: %d submitted, %d admitted (%.1f%%)\n",
		st.Submitted, st.Admitted, 100*float64(st.Admitted)/float64(st.Submitted))
	fmt.Fprintf(&b, "model: v%d, swaps %d\n", srv.ModelVersion(), srv.Swaps())
	fmt.Fprintf(&b, "serve: TCO %.3f%%  TCIO %.3f%%\n", res.TCOSavingsPercent(), res.TCIOSavingsPercent())
	return &RunResult{
		Report: b.Bytes(),
		Stats: Stats{
			Jobs:    len(e.test.Jobs),
			TCOPct:  res.TCOSavingsPercent(),
			TCIOPct: res.TCIOSavingsPercent(),
			Swaps:   srv.Swaps(),
			P99Ms:   metrics.Quantile(lp.latMs, 0.99),
		},
	}, nil
}

// onlineConfig maps the spec onto the learner's configuration: the one
// mapping the online and fleet runners share.
func (s *Spec) onlineConfig() online.Config {
	c := online.DefaultConfig(s.Train.categories())
	c.Train = s.trainOptions()
	c.Window.MaxCount = s.Run.windowMax()
	c.RetrainEverySec = s.Run.retrainSec()
	c.DriftTV = s.Run.DriftTV
	c.MinRetrainJobs = retrainMinJobs
	return c
}

// runOnline replays the test half through the full closed loop:
// server decisions, outcome feedback, synchronous gated retrains and
// hot swaps. Every retrain attempt becomes one deterministic report
// line (virtual time, trigger, sizes, shadow scores, verdict).
func runOnline(spec *Spec) (*RunResult, error) {
	e, err := buildEnv(spec)
	if err != nil {
		return nil, err
	}
	reg, srv, err := newServer(spec, e)
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	var events []online.Event
	lcfg := spec.onlineConfig()
	lcfg.OnEvent = func(ev online.Event) { events = append(events, ev) }
	learner, err := online.New(reg, spec.Name, e.cm, lcfg)
	if err != nil {
		return nil, err
	}
	defer learner.Close()

	res, err := online.RunLoop(e.test, online.Local(srv), learner, e.cm, sim.Config{SSDQuota: e.quota})
	if err != nil {
		return nil, err
	}

	var b bytes.Buffer
	e.writeHeader(&b, spec)
	fmt.Fprintf(&b, "\n")
	var accepts int64
	for _, ev := range events {
		verdict := "ACCEPT"
		switch {
		case ev.Err != nil:
			verdict = "ERROR " + ev.Err.Error()
		case !ev.Accepted:
			verdict = "REJECT"
		default:
			accepts++
			verdict = fmt.Sprintf("ACCEPT v%d", ev.Version)
		}
		fmt.Fprintf(&b, "retrain t=%.2fd %-7s window=%d train=%d holdout=%d cand=%.3f%% live=%.3f%% -> %s\n",
			ev.Sec/86400, ev.Trigger, ev.WindowJobs, ev.TrainJobs, ev.HoldoutJobs,
			ev.CandidatePct, ev.LivePct, verdict)
	}
	fmt.Fprintf(&b, "loop: %d retrains, %d accepted, %d swaps, final model v%d\n",
		len(events), accepts, srv.Swaps(), srv.ModelVersion())
	fmt.Fprintf(&b, "window: %d records held\n", learner.WindowLen())
	fmt.Fprintf(&b, "online: TCO %.3f%%  TCIO %.3f%%\n", res.TCOSavingsPercent(), res.TCIOSavingsPercent())
	return &RunResult{
		Report: b.Bytes(),
		Stats: Stats{
			Jobs:     len(e.test.Jobs),
			TCOPct:   res.TCOSavingsPercent(),
			TCIOPct:  res.TCIOSavingsPercent(),
			Retrains: int64(len(events)),
			Swaps:    srv.Swaps(),
		},
	}, nil
}

// runFleet drives the multi-cluster fleet comparison from the spec.
func runFleet(spec *Spec) (*RunResult, error) {
	f := spec.Fleet
	fcfg := fleet.DefaultConfig(f.Clusters, f.Seed)
	fcfg.Fleet.DurationSec = f.Days * 24 * 3600
	fcfg.Fleet.Users = f.users()
	fcfg.Train = spec.trainOptions()
	if f.Online {
		ocfg := spec.onlineConfig()
		ocfg.Window.HorizonSec = f.Days * 24 * 3600
		fcfg.Online = &ocfg
	}
	rep, err := fleet.Run(fcfg, registry.New())
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	writeTitle(&b, spec)
	fmt.Fprintf(&b, "fleet: %d clusters, %.2f days, %d users, donor C%d, online=%v\n",
		f.Clusters, f.Days, f.users(), fleet.Donor, f.Online)
	fmt.Fprintf(&b, "model: %d categories, %d rounds, seed %d\n\n",
		spec.Train.categories(), spec.Train.rounds(), spec.trainSeed())
	rep.Render(&b)
	var tcio, tcioSaved float64
	var retrains, swaps int64
	for i := range rep.Clusters {
		c := &rep.Clusters[i]
		tcio += c.TotalTCIO
		tcioSaved += c.PerCluster.TCIOSaved
		if c.Online != nil {
			retrains += c.Online.Retrains
			swaps += c.Online.Swaps
		}
	}
	var tcioPct float64
	if tcio > 0 {
		tcioPct = 100 * tcioSaved / tcio
	}
	return &RunResult{
		Report: b.Bytes(),
		Stats: Stats{
			Jobs:     rep.TotalTestJobs,
			TCOPct:   rep.PerClusterAggTCOPct,
			TCIOPct:  tcioPct,
			Retrains: retrains,
			Swaps:    swaps,
		},
	}, nil
}
