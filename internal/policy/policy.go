// Package policy implements every placement method the paper compares
// (Section 5.1 "Methods Compared"):
//
//   - FirstFit — static heuristic, admits any job that fits (§3.2)
//   - Heuristic — CacheSack-style adaptive per-category admission (§3.3)
//   - MLBaseline — lifetime-prediction µ+σ vs TTL with eviction (§3.4)
//   - AdaptiveHash — Algorithm 1 with hashed (non-ML) categories (an
//     AdaptiveFunc, like AdaptiveTrue)
//   - AdaptiveRanking — Algorithm 1 with the BYOM category model (ours)
//   - Static — fixed decision maps (the oracle policies)
//   - AdaptiveTrue — Algorithm 1 with ground-truth categories (Fig. 11)
//
// All policies implement sim.Policy; the adaptive ones also implement
// sim.Observer (spillover feedback) and MLBaseline implements
// sim.Evictor.
//
// Every model-backed policy predicts on a compiled gbdt.Forest, the
// kernel serving runs: AdaptiveRanking on its category model's shared
// forest, MLBaseline and Imitation on forests compiled when they are
// trained. A model the forest cannot hold is an error where the model
// is built (the trainers, gbdt.Load), not a second prediction path. AdaptiveRanking is also a sim.Preparer: a replay
// classifies its trace once, batched, before the first Place.
package policy

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/features"
	"repro/internal/gbdt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Canonical policy names used across experiments and reports.
const (
	NameFirstFit        = "FirstFit"
	NameHeuristic       = "Heuristic"
	NameMLBaseline      = "MLBaseline"
	NameAdaptiveHash    = "AdaptiveHash"
	NameAdaptiveRanking = "AdaptiveRanking"
	NameAdaptiveTrue    = "AdaptiveTrue"
	NameOracleTCO       = "OracleTCO"
	NameOracleTCIO      = "OracleTCIO"
)

// FirstFit places jobs on SSD in start-time order whenever the job's
// peak space fits in the free capacity (§3.2). It optimizes TCIO under
// abundant SSD but ignores cost, hurting TCO at tight quotas.
type FirstFit struct{}

// Name implements sim.Policy.
func (FirstFit) Name() string { return NameFirstFit }

// Place implements sim.Policy.
func (FirstFit) Place(j *trace.Job, ctx sim.PlaceContext) bool {
	return j.SizeBytes <= ctx.SSDFree
}

// Static replays a fixed decision map — used to wrap oracle solutions.
type Static struct {
	name  string
	OnSSD map[string]bool
}

// NewStatic builds a fixed-decision policy.
func NewStatic(name string, onSSD map[string]bool) *Static {
	return &Static{name: name, OnSSD: onSSD}
}

// Name implements sim.Policy.
func (s *Static) Name() string { return s.name }

// Place implements sim.Policy.
func (s *Static) Place(j *trace.Job, _ sim.PlaceContext) bool { return s.OnSSD[j.ID] }

// adaptiveBase shares the Algorithm 1 integration between the ranking
// and function-backed policies: Place asks the controller, and
// Observe feeds spillover outcomes back.
type adaptiveBase struct {
	adaptive *core.Adaptive
	cm       *cost.Model
}

func (b *adaptiveBase) observe(j *trace.Job, o sim.Outcome) {
	b.adaptive.Observe(sim.SpilloverFeedback(j, o, b.cm))
}

// ACTTrace exposes the controller time series (Fig. 16).
func (b *adaptiveBase) ACTTrace() []core.ACTPoint { return b.adaptive.Trace() }

// AdaptiveRanking is the paper's method: the application-layer category
// model produces an importance hint; Algorithm 1 at the storage layer
// admits categories above the adaptive threshold.
type AdaptiveRanking struct {
	adaptiveBase
	model *core.CategoryModel
	buf   []float64

	// The prepared classification: cats[i] is the model's category of
	// jobs[i], and next is the job the replay is expected to place next.
	// cats is the policy's own buffer unless a caller handed its
	// classification in (handed), which Prepare must not write over.
	jobs   []*trace.Job
	cats   []int32
	next   int
	handed bool
}

// NewAdaptiveRanking wires a trained category model to a fresh
// Algorithm 1 controller.
func NewAdaptiveRanking(model *core.CategoryModel, cm *cost.Model, cfg core.AdaptiveConfig) (*AdaptiveRanking, error) {
	if cfg.NumCategories != model.NumCategories() {
		return nil, fmt.Errorf("policy: adaptive config has %d categories, model %d",
			cfg.NumCategories, model.NumCategories())
	}
	a, err := core.NewAdaptive(cfg)
	if err != nil {
		return nil, err
	}
	return &AdaptiveRanking{adaptiveBase: adaptiveBase{adaptive: a, cm: cm}, model: model}, nil
}

// Name implements sim.Policy.
func (p *AdaptiveRanking) Name() string { return NameAdaptiveRanking }

// WithCategories hands the policy a classification the caller already
// holds, so that a sweep replaying one trace under one model many times
// (quotas, controller settings) classifies it once. cats must be what
// the policy's own model returns from Categories(jobs): the policy
// cannot tell another model's categories from its own, so the caller
// owns that match, and one category per job is checked. Prepare keeps
// the classification for a replay of exactly these jobs and classifies
// any other trace itself. Nil cats hands nothing in.
func (p *AdaptiveRanking) WithCategories(jobs []*trace.Job, cats []int32) *AdaptiveRanking {
	if cats == nil {
		return p
	}
	if len(cats) != len(jobs) {
		panic(fmt.Sprintf("policy: WithCategories: %d categories for %d jobs", len(cats), len(jobs)))
	}
	p.jobs, p.cats, p.next, p.handed = jobs, cats, 0, true
	return p
}

// Prepare implements sim.Preparer: one batched pass of the model over
// the trace (core.CategoryModel.Categories).
func (p *AdaptiveRanking) Prepare(jobs []*trace.Job) error {
	p.next = 0
	if p.handed && len(jobs) == len(p.jobs) && (len(jobs) == 0 || &jobs[0] == &p.jobs[0]) {
		return nil
	}
	var own []int32
	if !p.handed {
		own = p.cats
	}
	p.jobs, p.cats, p.handed = jobs, p.model.Categories(jobs, own), false
	return nil
}

// Place implements sim.Policy. The category is the prepared one when j
// is the job the replay was prepared to see next, and the same forest's
// single-row prediction otherwise: the two are equal, so preparation
// changes what a decision costs and never what it is.
func (p *AdaptiveRanking) Place(j *trace.Job, ctx sim.PlaceContext) bool {
	var cat int
	if i := p.next; i < len(p.jobs) && p.jobs[i] == j {
		cat = int(p.cats[i])
		p.next++
	} else {
		cat, p.buf = p.model.PredictInto(j, p.buf)
	}
	return p.adaptive.Admit(cat, ctx.Now)
}

// Observe implements sim.Observer.
func (p *AdaptiveRanking) Observe(j *trace.Job, o sim.Outcome) { p.observe(j, o) }

// AdaptiveFunc runs Algorithm 1 over categories produced by an
// arbitrary predictor function — AdaptiveHash and AdaptiveTrue, and
// composite deployments where hints come from many per-workload models
// (the BYOM fleet case).
type AdaptiveFunc struct {
	adaptiveBase
	name    string
	predict func(*trace.Job) int
}

// NewAdaptiveFunc builds a function-backed Algorithm 1 policy.
func NewAdaptiveFunc(name string, predict func(*trace.Job) int, cm *cost.Model, cfg core.AdaptiveConfig) (*AdaptiveFunc, error) {
	if predict == nil {
		return nil, fmt.Errorf("policy: nil predictor")
	}
	a, err := core.NewAdaptive(cfg)
	if err != nil {
		return nil, err
	}
	return &AdaptiveFunc{adaptiveBase: adaptiveBase{adaptive: a, cm: cm}, name: name, predict: predict}, nil
}

// Name implements sim.Policy.
func (p *AdaptiveFunc) Name() string { return p.name }

// Place implements sim.Policy.
func (p *AdaptiveFunc) Place(j *trace.Job, ctx sim.PlaceContext) bool {
	return p.adaptive.Admit(p.predict(j), ctx.Now)
}

// Observe implements sim.Observer.
func (p *AdaptiveFunc) Observe(j *trace.Job, o sim.Outcome) { p.observe(j, o) }

// NewAdaptiveHash builds the non-ML ablation: Algorithm 1 with
// categories assigned by hashing the job's recurring identity. The
// controller can still regulate admitted volume, but the ranking carries
// no importance signal — the gap to AdaptiveRanking isolates the model's
// value.
func NewAdaptiveHash(cm *cost.Model, cfg core.AdaptiveConfig) (*AdaptiveFunc, error) {
	n := cfg.NumCategories
	return NewAdaptiveFunc(NameAdaptiveHash, func(j *trace.Job) int { return hashCategory(j, n) }, cm, cfg)
}

// hashCategory spreads templates over categories 1..n-1 by their
// trace.TemplateHash (FNV-1a over the TemplateKey bytes).
func hashCategory(j *trace.Job, n int) int {
	return 1 + int(trace.TemplateHash(j.Pipeline, j.Step)%uint32(n-1))
}

// NewAdaptiveTrue builds the perfect-prediction policy: Algorithm 1 with
// the ground-truth category (100% accuracy) in place of the model's,
// isolating how much better a perfect model would do (Fig. 11).
func NewAdaptiveTrue(labeler *core.Labeler, cm *cost.Model, cfg core.AdaptiveConfig) (*AdaptiveFunc, error) {
	if cfg.NumCategories != labeler.NumCategories {
		return nil, fmt.Errorf("policy: adaptive config has %d categories, labeler %d",
			cfg.NumCategories, labeler.NumCategories)
	}
	return NewAdaptiveFunc(NameAdaptiveTrue, func(j *trace.Job) int { return labeler.Label(j, cm) }, cm, cfg)
}

const (
	// heuristicUpdateSec is how often the CacheSack-style baseline
	// recomputes its admission set.
	heuristicUpdateSec = 1800
	// heuristicWindowSec is the baseline's sliding statistics window.
	heuristicWindowSec = 24 * 3600
)

// catStat accumulates per-category observations within the window.
type catStat struct {
	arrivals  []float64
	savings   []float64
	byteSecs  []float64
	sumSave   float64
	sumByteSc float64
}

func (c *catStat) prune(cutoff float64) {
	keep := 0
	for keep < len(c.arrivals) && c.arrivals[keep] <= cutoff {
		c.sumSave -= c.savings[keep]
		c.sumByteSc -= c.byteSecs[keep]
		keep++
	}
	if keep > 0 {
		c.arrivals = c.arrivals[keep:]
		c.savings = c.savings[keep:]
		c.byteSecs = c.byteSecs[keep:]
	}
}

func (c *catStat) add(arrival, save, byteSec float64) {
	c.arrivals = append(c.arrivals, arrival)
	c.savings = append(c.savings, save)
	c.byteSecs = append(c.byteSecs, byteSec)
	c.sumSave += save
	c.sumByteSc += byteSec
}

// Heuristic emulates the CacheSack-style state-of-the-art baseline
// (§3.3, after Yang et al. 2022): per-category (job identity) stats of
// TCO savings and space usage; categories are ranked by savings and
// admitted until their cumulative historical space usage reaches the
// SSD capacity.
type Heuristic struct {
	cm        *cost.Model
	stats     map[string]*catStat
	admission map[string]bool
	lastCalc  float64
	started   bool
}

// NewHeuristic builds the baseline. Call Prime with historical jobs
// (e.g. the training week) so it starts with the same knowledge the ML
// methods train on.
func NewHeuristic(cm *cost.Model) *Heuristic {
	return &Heuristic{
		cm:        cm,
		stats:     map[string]*catStat{},
		admission: map[string]bool{},
	}
}

// Prime feeds historical jobs (e.g. the training week, which precedes
// the evaluation week on the same clock) into the category statistics.
// They age out of the sliding window as real observations accumulate.
func (h *Heuristic) Prime(jobs []*trace.Job) {
	for _, j := range jobs {
		h.record(j, j.ArrivalSec)
	}
}

func (h *Heuristic) record(j *trace.Job, at float64) {
	key := j.TemplateKey()
	st := h.stats[key]
	if st == nil {
		st = &catStat{}
		h.stats[key] = st
	}
	st.add(at, h.cm.Savings(j), j.SizeBytes*j.LifetimeSec)
}

// Name implements sim.Policy.
func (h *Heuristic) Name() string { return NameHeuristic }

// Place implements sim.Policy.
func (h *Heuristic) Place(j *trace.Job, ctx sim.PlaceContext) bool {
	if !h.started || ctx.Now >= h.lastCalc+heuristicUpdateSec {
		h.recompute(ctx)
	}
	return h.admission[j.TemplateKey()]
}

// Observe implements sim.Observer: completed jobs feed the statistics
// (the real system measures these post-execution).
func (h *Heuristic) Observe(j *trace.Job, _ sim.Outcome) {
	h.record(j, j.ArrivalSec)
}

// recompute rebuilds the admission set: categories by savings
// descending, admitted until predicted space usage exhausts the quota.
func (h *Heuristic) recompute(ctx sim.PlaceContext) {
	h.started = true
	h.lastCalc = ctx.Now
	cutoff := ctx.Now - heuristicWindowSec
	type ranked struct {
		key   string
		save  float64
		space float64
	}
	var cats []ranked
	for key, st := range h.stats {
		st.prune(cutoff)
		if len(st.arrivals) == 0 {
			delete(h.stats, key)
			continue
		}
		// Average concurrent space usage over the window.
		space := st.sumByteSc / heuristicWindowSec
		cats = append(cats, ranked{key: key, save: st.sumSave, space: space})
	}
	sort.Slice(cats, func(a, b int) bool {
		if cats[a].save != cats[b].save {
			return cats[a].save > cats[b].save
		}
		return cats[a].key < cats[b].key
	})
	// Paper: "add categories into an admission set until the selected
	// category's historical space usage reaches the SSD capacity" — the
	// crossing category is still admitted.
	h.admission = make(map[string]bool, len(cats))
	var used float64
	for _, c := range cats {
		if c.save <= 0 {
			break
		}
		h.admission[c.key] = true
		used += c.space
		if used >= ctx.SSDQuota {
			break
		}
	}
}

// MLBaseline follows Zhou & Maas (2021)'s SSD/HDD tiering case study:
// predict the mean µ and standard deviation σ of file lifetime, admit
// to SSD when µ+σ < TTL, and evict anything resident longer than µ+σ
// to mitigate mispredictions (§3.4).
type MLBaseline struct {
	enc *features.Encoder
	// The two lifetime regressors, compiled: mean log-lifetime and the
	// squared residual.
	mu, variance *gbdt.Forest
	TTLSec       float64
	buf, out     []float64
}

// TrainMLBaseline fits the lifetime distribution models on historical
// jobs: a regressor for mean log-lifetime and one for the squared
// residual (variance). A model the forest cannot hold is an error.
func TrainMLBaseline(train []*trace.Job, ttlSec float64, cfg gbdt.Config) (*MLBaseline, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("policy: no training jobs for ML baseline")
	}
	if ttlSec <= 0 {
		return nil, fmt.Errorf("policy: TTL must be positive, got %g", ttlSec)
	}
	enc := features.BuildEncoder(train, 0)
	ds := enc.Dataset(train)
	logLife := make([]float64, len(train))
	for i, j := range train {
		logLife[i] = math.Log(j.LifetimeSec)
	}
	muModel, err := gbdt.TrainRegressor(ds, logLife, cfg)
	if err != nil {
		return nil, fmt.Errorf("policy: ML baseline mu model: %w", err)
	}
	mu, err := muModel.Compile()
	if err != nil {
		return nil, fmt.Errorf("policy: ML baseline mu model: %w", err)
	}
	resid := make([]float64, len(train))
	row := make([]float64, enc.NumFeatures())
	var out []float64
	for i := range train {
		row = ds.Row(i, row)
		out = mu.Logits(row, out)
		r := logLife[i] - out[0]
		resid[i] = r * r
	}
	varModel, err := gbdt.TrainRegressor(ds, resid, cfg)
	if err != nil {
		return nil, fmt.Errorf("policy: ML baseline variance model: %w", err)
	}
	variance, err := varModel.Compile()
	if err != nil {
		return nil, fmt.Errorf("policy: ML baseline variance model: %w", err)
	}
	return &MLBaseline{enc: enc, mu: mu, variance: variance, TTLSec: ttlSec}, nil
}

// Fork returns a baseline that shares p's trained models but has its
// own scratch: Place writes scratch, so each concurrent replay needs a
// fork.
func (p *MLBaseline) Fork() *MLBaseline {
	return &MLBaseline{enc: p.enc, mu: p.mu, variance: p.variance, TTLSec: p.TTLSec}
}

// Name implements sim.Policy.
func (p *MLBaseline) Name() string { return NameMLBaseline }

// EstimateLifetime returns exp(µ+σ) in seconds: the admission statistic.
func (p *MLBaseline) EstimateLifetime(j *trace.Job) float64 {
	p.buf = p.enc.Encode(j, p.buf)
	p.out = p.mu.Logits(p.buf, p.out)
	mu := p.out[0]
	p.out = p.variance.Logits(p.buf, p.out)
	v := p.out[0]
	if v < 0 {
		v = 0
	}
	return math.Exp(mu + math.Sqrt(v))
}

// Place implements sim.Policy.
func (p *MLBaseline) Place(j *trace.Job, _ sim.PlaceContext) bool {
	return p.EstimateLifetime(j) < p.TTLSec
}

// EvictAfter implements sim.Evictor: evict after µ+σ.
func (p *MLBaseline) EvictAfter(j *trace.Job) float64 {
	return p.EstimateLifetime(j)
}

// Interface conformance checks.
var (
	_ sim.Policy   = FirstFit{}
	_ sim.Policy   = (*Static)(nil)
	_ sim.Policy   = (*AdaptiveRanking)(nil)
	_ sim.Observer = (*AdaptiveRanking)(nil)
	_ sim.Preparer = (*AdaptiveRanking)(nil)
	_ sim.Policy   = (*AdaptiveFunc)(nil)
	_ sim.Observer = (*AdaptiveFunc)(nil)
	_ sim.Policy   = (*Heuristic)(nil)
	_ sim.Observer = (*Heuristic)(nil)
	_ sim.Policy   = (*MLBaseline)(nil)
	_ sim.Evictor  = (*MLBaseline)(nil)
)
