package rebalance

import (
	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Policy wraps a write-time placement policy with the heat-aware
// rebalancer: the inner policy proposes at write time, the current
// residency plan disposes. It implements sim.Policy, sim.Observer,
// sim.Evictor and sim.Preparer (forwarded to the inner policy), so the
// simulator executes the plan's decisions through its existing seams:
//
//   - residency 0 vetoes the inner policy's SSD request — the
//     workload's new writes migrate to HDD;
//   - residency r in (0,1) admits the job but evicts it r×lifetime
//     after arrival, freeing quota for hotter workloads;
//   - residency 1, or a workload the plan doesn't cover, defers
//     entirely to the inner policy (including its own Evictor, if any).
//
// The plan re-solves every Config.SolveIntervalSec of virtual time from
// the heat tracker's decayed view. All state advances in virtual time,
// so a replay is bit-deterministic.
type Policy struct {
	inner    sim.Policy
	innerObs sim.Observer
	innerEv  sim.Evictor
	cfg      Config
	heat     *HeatTracker

	plan      map[string]float64
	vetoed    map[string]struct{}
	started   bool
	nextSolve float64
	quota     float64
	// heatBuf and items are the buffers every solve refills: the heat
	// snapshot and the knapsack's candidates.
	heatBuf []WorkloadHeat
	items   []item
}

// New wraps inner with a rebalancer. The inner policy's Observer and
// Evictor extensions, when present, keep working: observations are
// forwarded after the heat tracker's, and the plan's eviction horizon
// combines with the inner evictor's by taking the earlier one.
func New(inner sim.Policy, cm *cost.Model, cfg Config) *Policy {
	p := &Policy{
		inner:  inner,
		cfg:    cfg,
		heat:   NewHeatTracker(cm, cfg.halfLife()),
		plan:   map[string]float64{},
		vetoed: map[string]struct{}{},
	}
	p.innerObs, _ = inner.(sim.Observer)
	p.innerEv, _ = inner.(sim.Evictor)
	return p
}

// Name implements sim.Policy.
func (p *Policy) Name() string { return p.inner.Name() + "+Rebalance" }

// Prepare implements sim.Preparer for the inner policy: the wrapper has
// nothing of its own to compute ahead of a replay.
func (p *Policy) Prepare(jobs []*trace.Job) error {
	if pr, ok := p.inner.(sim.Preparer); ok {
		return pr.Prepare(jobs)
	}
	return nil
}

// Place implements sim.Policy: ask the inner policy, then apply the
// plan. The inner policy always sees the job — its own controller state
// (spillover estimators, thresholds) must track the full stream even
// when the plan overrides the verdict.
func (p *Policy) Place(j *trace.Job, ctx sim.PlaceContext) bool {
	p.maybeSolve(ctx)
	if !p.inner.Place(j, ctx) {
		return false
	}
	if r, ok := p.plan[j.TemplateKey()]; ok && r == 0 {
		p.heat.counters.demotions.Add(1)
		if p.innerObs != nil {
			p.vetoed[j.ID] = struct{}{}
		}
		return false
	}
	return true
}

// EvictAfter implements sim.Evictor: a planned residency in (0,1)
// bounds the job's SSD stay at that fraction of its lifetime. When the
// inner policy also evicts, the earlier deadline wins, and the plan
// counts an eviction only when its deadline is the one returned.
func (p *Policy) EvictAfter(j *trace.Job) float64 {
	var d float64
	if p.innerEv != nil {
		d = p.innerEv.EvictAfter(j)
	}
	if r, ok := p.plan[j.TemplateKey()]; ok && r > 0 && r < 1 {
		if rd := r * j.LifetimeSec; d <= 0 || rd < d {
			d = rd
			p.heat.counters.evictions.Add(1)
		}
	}
	return d
}

// Observe implements sim.Observer: the outcome feeds the heat tracker
// first (the rebalancer's input signal), then the inner policy's own
// feedback path. A job the inner policy admitted but the plan vetoed
// reaches the inner feedback as a synthetic full spill, not as the
// override's quiet all-HDD outcome: from the controller's view its
// admission exceeded the capacity the plan grants that workload, and
// the threshold must keep seeing that pressure. Forwarding the real
// outcome instead reads as slack quota — the controller loosens,
// admits the next tier of write-heavy work, and refills the freed
// capacity with exactly the junk the plan just reclaimed, spilling the
// hot tenants the reclaim was for.
func (p *Policy) Observe(j *trace.Job, o sim.Outcome) {
	p.heat.Observe(j, o)
	if p.innerObs == nil {
		return
	}
	if _, ok := p.vetoed[j.ID]; ok {
		delete(p.vetoed, j.ID)
		o = sim.Outcome{WantedSSD: true, FracOnSSD: 0, SpilledAt: j.ArrivalSec, EvictedAt: -1}
	}
	p.innerObs.Observe(j, o)
}

// maybeSolve re-solves the residency plan on the virtual-time cadence.
// The first call only arms the timer: the tracker warms up for one full
// interval before the first plan can override anything.
func (p *Policy) maybeSolve(ctx sim.PlaceContext) {
	p.quota = ctx.SSDQuota
	if !p.started {
		p.started = true
		p.nextSolve = ctx.Now + p.cfg.solveInterval()
		return
	}
	if ctx.Now < p.nextSolve {
		return
	}
	// Catch up over idle gaps without solving once per missed tick.
	for ctx.Now >= p.nextSolve {
		p.nextSolve += p.cfg.solveInterval()
	}
	p.heatBuf = p.heat.snapshotInto(p.heatBuf, ctx.Now)
	p.items = solvePlan(p.plan, p.items, p.heatBuf, ctx.SSDQuota, p.cfg, &p.heat.counters)
}

// Stats returns the rebalance counter snapshot.
func (p *Policy) Stats() Stats { return p.heat.Stats() }
