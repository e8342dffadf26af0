// Package rebalance is the fleet's second placement actuator beyond
// model hot-swap: a per-workload heat tracker fed from the outcome
// feedback path, and a periodic solver that re-poses SSD residency as
// the paper's Section 3.1 knapsack. With one capacity row and a [0,1]
// box per workload that knapsack is fractional, so the density-order
// greedy fill solves it exactly. The plan it emits is executed
// through the simulator's existing seams: write-time demotions through
// sim.Policy (a vetoed placement is a migration of the workload's new
// writes to HDD) and early evictions through sim.Evictor.
//
// The paper places data at write time only; the Nil-Store RFC frames
// ongoing placement as a decentralized knapsack over capacity and heat.
// This package is that background optimizer, scoped to one cluster's
// quota: the write-time model proposes, the rebalancer disposes of the
// residual — workloads whose *realized* value (measured savings from
// observed outcomes, exponentially decayed in virtual time) no longer
// justifies their footprint.
//
// Determinism: all state advances in virtual time (job arrival
// seconds), never wall clock, and every map iteration that can reach a
// decision is key-sorted — so a replay produces bit-identical decisions
// at any worker count, the same contract internal/fleet pins for its
// reports.
package rebalance

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/trace"
)

// WorkloadHeat is one workload's decayed demand statistics, keyed by
// the job template (pipeline/step) — the same recurring identity the
// serving layer shards and routes on.
type WorkloadHeat struct {
	// Key is trace.Job.TemplateKey().
	Key string
	// Jobs is the decayed arrival count (access frequency).
	Jobs float64
	// Bytes is the decayed footprint mass (sum of job sizes).
	Bytes float64
	// ByteSec is the decayed footprint×lifetime mass; divided by the
	// decay time constant it estimates the workload's recent average
	// concurrent SSD demand in bytes.
	ByteSec float64
	// Savings is the decayed realized TCO savings mass: the cost
	// model's partial savings at each job's observed on-SSD fraction
	// and residency, not the full-placement estimate. Jobs that never
	// touched SSD contribute exactly zero; negative means SSD
	// placement has been costing money (wear plus SSD byte-time
	// exceeding the HDD costs actually avoided).
	Savings float64
	// LastSec is the virtual time of the most recent observation
	// (access recency).
	LastSec float64
}

// Stats is a point-in-time copy of the rebalancer's counters, in
// obs.WriteVars order; the rebalance scenario's report prints it.
type Stats struct {
	// Observations counts outcomes folded into the heat tracker.
	Observations int64 `varz:"observations"`
	// Solves counts residency re-solves.
	Solves int64 `varz:"solves"`
	// Workloads and Planned are the last solve's tracked workload count
	// and how many of them entered the plan.
	Workloads int64 `varz:"workloads"`
	Planned   int64 `varz:"planned"`
	// Demotions counts write-time SSD placements the plan vetoed and
	// Evictions the early evictions it issued.
	Demotions int64 `varz:"demotions"`
	Evictions int64 `varz:"evictions"`
}

// counters are Stats' live, atomically updated side.
type counters struct {
	observations, solves atomic.Int64
	workloads, planned   atomic.Int64
	demotions, evictions atomic.Int64
}

// HeatTracker accumulates exponentially-decayed per-workload heat from
// outcome observations. It implements sim.Observer, so it can sit
// directly on a replay loop or behind a daemon's /v1/outcome path.
// Safe for concurrent use; decay uses the observed job's own arrival
// time, so sequential virtual-time replays are bit-deterministic.
type HeatTracker struct {
	halfLife float64
	cm       *cost.Model
	// counters are the rebalancer's: a Policy counts its solves and
	// actions in its tracker's.
	counters counters

	mu    sync.Mutex
	byKey map[string]*WorkloadHeat
}

// NewHeatTracker builds a tracker with the given decay half-life in
// virtual seconds (0 = 6 hours).
func NewHeatTracker(cm *cost.Model, halfLifeSec float64) *HeatTracker {
	if halfLifeSec <= 0 {
		halfLifeSec = 6 * 3600
	}
	return &HeatTracker{
		halfLife: halfLifeSec,
		cm:       cm,
		byKey:    map[string]*WorkloadHeat{},
	}
}

// Observe folds one placement outcome into the workload's heat,
// implementing sim.Observer. Time is the job's arrival second: virtual
// time, monotone in a replay, and carried by the job itself over the
// wire — a daemon's concurrent outcome posts may arrive out of order,
// which decayTo tolerates by never decaying backwards.
func (h *HeatTracker) Observe(j *trace.Job, o sim.Outcome) {
	if j == nil || !finite(j.ArrivalSec) || !finite(j.SizeBytes) || !finite(j.LifetimeSec) {
		return
	}
	sav := realizedSavings(h.cm, j, o)
	if !finite(sav) {
		return
	}
	now := j.ArrivalSec
	h.mu.Lock()
	w := h.byKey[j.TemplateKey()]
	if w == nil {
		w = &WorkloadHeat{Key: j.TemplateKey(), LastSec: now}
		h.byKey[w.Key] = w
	}
	h.decayTo(w, now)
	w.Jobs++
	w.Bytes += j.SizeBytes
	w.ByteSec += j.SizeBytes * j.LifetimeSec
	w.Savings += sav
	h.mu.Unlock()
	h.counters.observations.Add(1)
}

// decayTo ages a workload's accumulators forward to now. A now earlier
// than the last observation (out-of-order delivery) applies no decay:
// the entry keeps its newer timestamp and the older job still adds its
// mass, so the merged heat is order-insensitive up to decay resolution.
func (h *HeatTracker) decayTo(w *WorkloadHeat, now float64) {
	dt := now - w.LastSec
	if dt <= 0 {
		return
	}
	f := math.Exp(-math.Ln2 * dt / h.halfLife)
	w.Jobs *= f
	w.Bytes *= f
	w.ByteSec *= f
	w.Savings *= f
	w.LastSec = now
}

// snapshotInto returns every workload's heat decayed to now, sorted by
// key — the deterministic input the solver consumes — in dst's storage,
// which a Policy keeps from solve to solve.
func (h *HeatTracker) snapshotInto(dst []WorkloadHeat, nowSec float64) []WorkloadHeat {
	h.mu.Lock()
	dst = slices.Grow(dst[:0], len(h.byKey))
	for _, w := range h.byKey {
		c := *w
		h.decayTo(&c, nowSec)
		dst = append(dst, c)
	}
	h.mu.Unlock()
	slices.SortFunc(dst, func(a, b WorkloadHeat) int { return cmp.Compare(a.Key, b.Key) })
	return dst
}

// Len returns the tracked workload count.
func (h *HeatTracker) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.byKey)
}

// Stats returns the rebalance counter snapshot. Concurrent updates may
// tear between fields; each field is consistent.
func (h *HeatTracker) Stats() Stats { return h.counters.stats() }

func (c *counters) stats() Stats {
	return Stats{
		Observations: c.observations.Load(),
		Solves:       c.solves.Load(),
		Workloads:    c.workloads.Load(),
		Planned:      c.planned.Load(),
		Demotions:    c.demotions.Load(),
		Evictions:    c.evictions.Load(),
	}
}

// realizedSavings measures the TCO value this job actually extracted
// from SSD: the cost model's partial savings at the observed on-SSD
// fraction and residency — the same accounting the simulator settles
// its TCO ledger with. A job that never landed on SSD (rejected,
// vetoed, or fully spilled) realizes exactly zero, not the
// full-placement estimate, so workloads the write-time policy never
// admits cannot accumulate phantom value and crowd real tenants out of
// the knapsack.
func realizedSavings(cm *cost.Model, j *trace.Job, o sim.Outcome) float64 {
	po := cost.PartialOutcome{FracOnSSD: o.FracOnSSD, ResidencyFrac: 1}
	if o.EvictedAt >= 0 && j.LifetimeSec > 0 {
		po.ResidencyFrac = (o.EvictedAt - j.ArrivalSec) / j.LifetimeSec
		switch {
		case po.ResidencyFrac < 0:
			po.ResidencyFrac = 0
		case po.ResidencyFrac > 1:
			po.ResidencyFrac = 1
		}
	}
	return cm.PartialSavings(j, po)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
