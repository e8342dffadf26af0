// Package online closes the loop the paper's deployment story depends
// on: a BYOM category model only stays effective in a warehouse-scale
// cluster because it is continuously retrained on fresh per-workload
// data (Section 2.3's "workloads exhibit significantly faster rates of
// change than the update cycles of storage systems"). The package
// connects the serving layer (internal/serve, PR 1) to the training
// engine (internal/gbdt, PR 2) through the model registry:
//
//	serve ──(features, category, outcome)──▶ window collector
//	                                             │ cadence / drift trigger
//	                                             ▼
//	                                  retrain (histogram engine)
//	                                             │ candidate model
//	                                             ▼
//	                              shadow gate (holdout TCO savings)
//	                                   pass │          │ fail
//	                                        ▼          ▼
//	                            registry.Publish   reject (no swap)
//	                                        │
//	                     serve hot-swaps via registry.Subscribe
//
// The Learner ingests the feedback stream into a bounded sliding
// window (ring buffer with count- and time-based eviction, matching the
// training-window semantics the WindowSemantics ablation tests), fires
// retrains on a virtual-time cadence or when the served category
// distribution drifts (total-variation distance against the reference
// taken at the last retrain), trains a candidate with the parallel
// histogram engine, and shadow-evaluates candidate vs live model on the
// newest slice of the window. Only candidates whose holdout TCO savings
// do not regress beyond a configurable epsilon are published; the
// serving layer then swaps atomically under load. Every stage is
// counted (Stats).
//
// All times inside the learner are the trace's virtual clock (job
// arrival seconds), mirroring internal/serve and internal/sim; only
// retrain latency is wall-clock.
package online

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/trace"
)

// WindowConfig bounds the sliding feedback window.
type WindowConfig struct {
	// MaxCount caps the number of retained records (ring capacity).
	MaxCount int
	// HorizonSec evicts records older than this relative to the newest
	// observation (0 disables time-based eviction).
	HorizonSec float64
}

// Trainer produces a candidate model from a window snapshot. The
// default trains a fresh category model with Config.Train; deployments
// bring their own (the BYOM premise applies to the retrain path too).
type Trainer func(jobs []*trace.Job, cm *cost.Model) (*core.CategoryModel, error)

const (
	// holdoutFrac is the newest fraction of the window reserved for
	// shadow evaluation; the rest trains the candidate.
	holdoutFrac = 0.25
	// gateQuotaFrac sets the shadow simulation's SSD quota as a
	// fraction of the holdout slice's peak SSD demand.
	gateQuotaFrac = 0.1
	// gateEpsilonPct is the tolerated TCO-savings regression, in
	// percentage points, of the candidate vs the live model on the
	// holdout before the candidate is rejected.
	gateEpsilonPct = 0.5
)

// Config tunes the continuous-learning loop.
type Config struct {
	// Window bounds the feedback collector.
	Window WindowConfig
	// RetrainEverySec is the retrain cadence in virtual seconds,
	// measured from the previous retrain attempt (0 disables the
	// cadence trigger; drift can still fire).
	RetrainEverySec float64
	// Drift configures the category-distribution shift trigger.
	Drift DriftConfig
	// MinRetrainJobs is the minimum window population for any retrain
	// to fire (cadence or drift).
	MinRetrainJobs int
	// Train configures the default trainer. Train.NumCategories must
	// match the served model (the server rejects mismatches anyway).
	Train core.TrainOptions
	// Trainer overrides the retrain function (nil = train a category
	// model with Train).
	Trainer Trainer
	// Async runs retrains on a background goroutine so the observation
	// path never blocks on training — the deployment mode. Synchronous
	// mode (the default) retrains inline in Observe, which is the right
	// semantics for virtual-time replays: wall-clock training consumes
	// no virtual time, so the swap lands "instantly" at the trigger.
	Async bool
	// OnEvent, if set, receives one Event per retrain attempt
	// (synchronously, from whichever goroutine ran the retrain).
	OnEvent func(Event)
}

// DefaultConfig returns loop parameters sized for the synthetic
// cluster traces: a 3.5-day / 8192-record window, daily retrain
// cadence and a drift trigger at 0.15 total-variation shift. The 25%
// holdout and the 0.5-point regression gate are fixed.
func DefaultConfig(numCategories int) Config {
	topts := core.DefaultTrainOptions()
	topts.NumCategories = numCategories
	return Config{
		Window:          WindowConfig{MaxCount: 8192, HorizonSec: 3.5 * 24 * 3600},
		RetrainEverySec: 24 * 3600,
		Drift:           DriftConfig{TVThreshold: 0.15, MinSamples: 500},
		MinRetrainJobs:  500,
		Train:           topts,
	}
}

func (c *Config) validate() error {
	switch {
	case c.Window.MaxCount < 2:
		return fmt.Errorf("online: Window.MaxCount must be >= 2, got %d", c.Window.MaxCount)
	case c.Window.HorizonSec < 0:
		return fmt.Errorf("online: Window.HorizonSec must be >= 0, got %g", c.Window.HorizonSec)
	case c.RetrainEverySec < 0:
		return fmt.Errorf("online: RetrainEverySec must be >= 0, got %g", c.RetrainEverySec)
	case c.RetrainEverySec == 0 && c.Drift.TVThreshold <= 0:
		return fmt.Errorf("online: both retrain triggers disabled (cadence 0, drift threshold %g)", c.Drift.TVThreshold)
	case c.MinRetrainJobs < 2:
		return fmt.Errorf("online: MinRetrainJobs must be >= 2, got %d", c.MinRetrainJobs)
	case c.Train.NumCategories < 2:
		return fmt.Errorf("online: Train.NumCategories must be >= 2, got %d", c.Train.NumCategories)
	}
	return nil
}

// Event reports one retrain attempt.
type Event struct {
	// Sec is the virtual time of the trigger.
	Sec float64
	// Trigger is "cadence" or "drift".
	Trigger string
	// WindowJobs / TrainJobs / HoldoutJobs size the attempt.
	WindowJobs, TrainJobs, HoldoutJobs int
	// CandidatePct and LivePct are the shadow-evaluation TCO savings
	// (percent) of the candidate and the live model on the holdout.
	CandidatePct, LivePct float64
	// Accepted reports the gate verdict; Version is the published
	// registry version when accepted.
	Accepted bool
	Version  int
	// Err is set when training or evaluation failed (no gate verdict).
	Err error
	// Latency is the wall-clock duration of the attempt.
	Latency time.Duration
}

// Stats is a point-in-time copy of the learner's counters, in /varz
// order (obs.WriteVars).
type Stats struct {
	// Observations counts feedback records entering the window and
	// Evictions the records their arrival pushed out (count cap or time
	// horizon).
	Observations int64 `varz:"observations"`
	Evictions    int64 `varz:"evictions"`
	// DriftTriggers and CadenceTriggers count retrain triggers by which
	// of the two fired.
	DriftTriggers   int64 `varz:"drift_triggers"`
	CadenceTriggers int64 `varz:"cadence_triggers"`
	// Retrains counts attempts that reached the gate, split into
	// GateAccepts and GateRejects; TrainErrors counts those that failed
	// before it (training, evaluation or publishing).
	Retrains    int64 `varz:"retrains"`
	GateAccepts int64 `varz:"gate_accepts"`
	GateRejects int64 `varz:"gate_rejects"`
	TrainErrors int64 `varz:"train_errors"`
	// The wall-clock latency of the attempts Retrains counts.
	MeanRetrainLatency time.Duration `varz:"mean_retrain_latency_ns"`
	MaxRetrainLatency  time.Duration `varz:"max_retrain_latency_ns"`
}

// counters are Stats' live, atomically updated side.
type counters struct {
	observations, evictions                         atomic.Int64
	driftTriggers, cadenceTriggers                  atomic.Int64
	retrains, gateAccepts, gateRejects, trainErrors atomic.Int64
	retrainNs, maxRetrainNs                         atomic.Int64
}

// Learner is the continuous-learning pipeline. Feed it the serving
// layer's placement outcomes with Observe; it maintains the sliding
// window, fires retrains, gates candidates and publishes survivors to
// the registry the server subscribes to. All methods are safe for
// concurrent use.
type Learner struct {
	cfg      Config
	cm       *cost.Model
	reg      *registry.Registry
	workload string
	trainer  Trainer
	counters counters

	mu             sync.Mutex
	win            *window
	det            driftDetector
	distBuf        []float64 // reused by checkTrigger (guarded by mu)
	lastRetrainSec float64
	started        bool
	retraining     bool
	closed         bool
	wg             sync.WaitGroup
}

// New creates a learner that publishes gated retrains of workload into
// reg. Pair it with a server created from the same registry and
// workload (byom.NewServerFromRegistry); the server's subscription
// turns every accepted candidate into an atomic hot swap.
func New(reg *registry.Registry, workload string, cm *cost.Model, cfg Config) (*Learner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if reg == nil {
		return nil, fmt.Errorf("online: nil registry")
	}
	l := &Learner{
		cfg:      cfg,
		cm:       cm,
		reg:      reg,
		workload: workload,
		trainer:  cfg.Trainer,
		win:      newWindow(cfg.Window.MaxCount, cfg.Window.HorizonSec, cfg.Train.NumCategories),
		det:      driftDetector{cfg: cfg.Drift},
	}
	if l.trainer == nil {
		l.trainer = func(jobs []*trace.Job, cm *cost.Model) (*core.CategoryModel, error) {
			return core.TrainCategoryModel(jobs, cm, cfg.Train)
		}
	}
	return l, nil
}

// Observe streams one placement outcome into the window: the job,
// the category the serving model predicted for it (serve.Decision.
// Category) and how the placement played out. Outcomes should arrive in
// roughly arrival order, as the serving layer reports them. Observe
// may fire a retrain; in synchronous mode the retrain completes before
// Observe returns, in Async mode it runs in the background.
func (l *Learner) Observe(j *trace.Job, category int, o sim.Outcome) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	evicted := l.win.add(Record{Job: j, Category: category, Outcome: o})
	l.counters.observations.Add(1)
	l.counters.evictions.Add(int64(evicted))

	now := j.ArrivalSec
	if !l.started {
		l.started = true
		l.lastRetrainSec = now
	}
	trigger, dist := l.checkTrigger(now)
	if trigger == "" {
		l.mu.Unlock()
		return
	}
	// Commit the trigger under the lock: reset the cadence clock and
	// re-arm the drift reference so one shift fires one retrain.
	if trigger == "drift" {
		l.counters.driftTriggers.Add(1)
	} else {
		l.counters.cadenceTriggers.Add(1)
	}
	l.lastRetrainSec = now
	if dist != nil {
		l.det.arm(dist)
	}
	l.retraining = true
	snap := l.win.snapshot()
	l.wg.Add(1) // Close waits for sync and async retrains alike
	if l.cfg.Async {
		go func() {
			defer l.wg.Done()
			l.retrain(snap, now, trigger)
		}()
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()
	defer l.wg.Done()
	l.retrain(snap, now, trigger)
}

// checkTrigger decides, under l.mu, whether a retrain should fire now
// and returns its reason ("" = no) plus the window's category
// distribution when the drift detector is enabled. The distribution
// lands in a buffer reused across calls (arm copies it), so the hot
// observation path allocates nothing in steady state.
func (l *Learner) checkTrigger(now float64) (trigger string, dist []float64) {
	if l.retraining || l.win.count < l.cfg.MinRetrainJobs {
		return "", nil
	}
	if l.cfg.Drift.TVThreshold > 0 {
		dist = l.win.distributionInto(l.distBuf)
		l.distBuf = dist
		if l.det.shifted(dist, l.win.count) {
			return "drift", dist
		}
	}
	if l.cfg.RetrainEverySec > 0 && now-l.lastRetrainSec >= l.cfg.RetrainEverySec {
		return "cadence", dist
	}
	return "", dist
}

// retrain runs one attempt: split the snapshot, train a candidate,
// shadow-evaluate against the live model and publish if the gate
// passes.
func (l *Learner) retrain(snap []Record, now float64, trigger string) {
	start := time.Now()
	ev := Event{Sec: now, Trigger: trigger, WindowJobs: len(snap)}
	defer func() {
		ev.Latency = time.Since(start)
		l.mu.Lock()
		l.retraining = false
		l.mu.Unlock()
		if l.cfg.OnEvent != nil {
			l.cfg.OnEvent(ev)
		}
	}()

	jobs := make([]*trace.Job, len(snap))
	for i, r := range snap {
		jobs[i] = r.Job
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].ArrivalSec < jobs[b].ArrivalSec })
	holdStart := len(jobs) - int(holdoutFrac*float64(len(jobs)))
	if holdStart < 1 || holdStart >= len(jobs) {
		ev.Err = fmt.Errorf("online: window of %d jobs cannot be split at holdout fraction %g",
			len(jobs), holdoutFrac)
		l.counters.trainErrors.Add(1)
		return
	}
	trainJobs, holdout := jobs[:holdStart], jobs[holdStart:]
	ev.TrainJobs, ev.HoldoutJobs = len(trainJobs), len(holdout)

	candidate, err := l.trainer(trainJobs, l.cm)
	if err != nil {
		ev.Err = fmt.Errorf("online: training candidate: %w", err)
		l.counters.trainErrors.Add(1)
		return
	}

	live, _, liveErr := l.reg.Resolve(l.workload)
	accepted := true
	if liveErr == nil {
		ev.CandidatePct, ev.LivePct, err = l.shadowEval(candidate, live, holdout)
		if err != nil {
			ev.Err = err
			l.counters.trainErrors.Add(1)
			return
		}
		accepted = ev.CandidatePct >= ev.LivePct-gateEpsilonPct
	}
	if accepted {
		// Publish before counting the verdict so GateAccepts always
		// equals the number of versions actually rolled out.
		v, err := l.reg.Publish(l.workload, candidate, now)
		if err != nil {
			ev.Err = fmt.Errorf("online: publishing candidate: %w", err)
			l.counters.trainErrors.Add(1)
			return
		}
		ev.Version = v.Number
	}
	ev.Accepted = accepted
	l.counters.retrains.Add(1)
	if accepted {
		l.counters.gateAccepts.Add(1)
	} else {
		l.counters.gateRejects.Add(1)
	}
	ns := time.Since(start).Nanoseconds()
	l.counters.retrainNs.Add(ns)
	// One retrain runs at a time (l.retraining), so the max has one
	// writer.
	if ns > l.counters.maxRetrainNs.Load() {
		l.counters.maxRetrainNs.Store(ns)
	}
}

// shadowEval replays the holdout slice through fresh Algorithm 1
// controllers for the candidate and the live model and returns both TCO
// savings percentages. The quota is gateQuotaFrac of the holdout's peak
// SSD demand, so the gate exercises the same contention regime the
// window observed.
func (l *Learner) shadowEval(candidate, live *core.CategoryModel, holdout []*trace.Job) (candPct, livePct float64, err error) {
	tr := &trace.Trace{Cluster: "online-holdout", Jobs: holdout}
	quota := tr.PeakSSDUsage() * gateQuotaFrac
	candPct, err = evalTCOPct(candidate, tr, l.cm, quota)
	if err != nil {
		return 0, 0, fmt.Errorf("online: shadow-evaluating candidate: %w", err)
	}
	livePct, err = evalTCOPct(live, tr, l.cm, quota)
	if err != nil {
		return 0, 0, fmt.Errorf("online: shadow-evaluating live model: %w", err)
	}
	return candPct, livePct, nil
}

// evalTCOPct simulates one model over a trace at a quota and returns
// its TCO savings percent.
func evalTCOPct(model *core.CategoryModel, tr *trace.Trace, cm *cost.Model, quota float64) (float64, error) {
	p, err := policy.NewAdaptiveRanking(model, cm, core.DefaultAdaptiveConfig(model.NumCategories()))
	if err != nil {
		return 0, err
	}
	res, err := sim.Run(tr, p, cm, sim.Config{SSDQuota: quota})
	if err != nil {
		return 0, err
	}
	return res.TCOSavingsPercent(), nil
}

// WindowLen returns the current window population.
func (l *Learner) WindowLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.win.count
}

// Stats returns a snapshot of the loop counters. Concurrent updates may
// tear between fields; each field is consistent.
func (l *Learner) Stats() Stats {
	c := &l.counters
	s := Stats{
		Observations:      c.observations.Load(),
		Evictions:         c.evictions.Load(),
		DriftTriggers:     c.driftTriggers.Load(),
		CadenceTriggers:   c.cadenceTriggers.Load(),
		Retrains:          c.retrains.Load(),
		GateAccepts:       c.gateAccepts.Load(),
		GateRejects:       c.gateRejects.Load(),
		TrainErrors:       c.trainErrors.Load(),
		MaxRetrainLatency: time.Duration(c.maxRetrainNs.Load()),
	}
	if s.Retrains > 0 {
		s.MeanRetrainLatency = time.Duration(c.retrainNs.Load() / s.Retrains)
	}
	return s
}

// Close stops the learner and waits for any in-flight retrain. Further
// Observe calls are ignored.
func (l *Learner) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	l.wg.Wait()
	return nil
}
