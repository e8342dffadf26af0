package rebalance

import (
	"math"
	"sort"

	"repro/internal/lp"
)

// Config tunes a rebalancer.
type Config struct {
	// HalfLifeSec is the heat decay half-life in virtual seconds
	// (0 = 6 hours): the memory of the access-recency/frequency signal.
	HalfLifeSec float64
	// SolveIntervalSec is the knapsack re-solve cadence in virtual
	// seconds (0 = 1 hour). The first solve happens one interval after
	// the first decision, so the tracker warms up before the plan can
	// veto anything.
	SolveIntervalSec float64
	// MinJobs is the decayed arrival mass a workload needs before the
	// plan covers it (0 = 3); colder templates defer entirely to the
	// write-time policy.
	MinJobs float64
	// MaxWorkloads caps the LP's variable count (0 = 256). Over the
	// cap, the highest-value-density workloads are planned and the rest
	// defer to the write-time policy.
	MaxWorkloads int
	// MinResidency floors the planned residency of workloads with
	// positive realized value (0 = 0.1). The knapsack prices a
	// contention-excluded workload at zero, but the storage layer
	// spills partially rather than all-or-nothing — so exclusion
	// executes as an early eviction at this floor, not a write-time
	// veto. Only workloads whose measured savings are non-positive get
	// the hard residency-0 demotion.
	MinResidency float64
	// Solver overrides the LP entry point (nil = lp.Solve) — the test
	// seam that forces the IterationLimit/Unbounded statuses and proves
	// the greedy rounding fallback takes over.
	Solver func(lp.Problem) (lp.Solution, error)
}

func (c Config) halfLife() float64 {
	if c.HalfLifeSec <= 0 {
		return 6 * 3600
	}
	return c.HalfLifeSec
}

func (c Config) solveInterval() float64 {
	if c.SolveIntervalSec <= 0 {
		return 3600
	}
	return c.SolveIntervalSec
}

func (c Config) minJobs() float64 {
	if c.MinJobs <= 0 {
		return 3
	}
	return c.MinJobs
}

func (c Config) maxWorkloads() int {
	if c.MaxWorkloads <= 0 {
		return 256
	}
	return c.MaxWorkloads
}

func (c Config) minResidency() float64 {
	if c.MinResidency <= 0 {
		return 0.1
	}
	return c.MinResidency
}

func (c Config) solver() func(lp.Problem) (lp.Solution, error) {
	if c.Solver == nil {
		return lp.Solve
	}
	return c.Solver
}

// item is one knapsack candidate: a workload's estimated concurrent
// demand in bytes and its decayed realized value.
type item struct {
	key    string
	demand float64
	value  float64
}

// solvePlan re-poses SSD residency as the Section 3.1 knapsack over
// the tracked workloads: maximize the heat-weighted realized value of
// what stays resident, subject to the byte quota, with per-workload
// residency fractions x in [0,1]. Returns the residency plan keyed by
// template. Workloads below the heat floor, or with exactly zero
// realized value (never actually placed — nothing measured), are
// absent from the plan and defer to the write-time policy; workloads
// with negative realized value get residency 0 outright — SSD has
// been costing money on them, so no capacity math can justify them.
// Positive-value
// workloads the solver prices out of a contended quota are floored at
// Config.MinResidency: the plan shortens their stay instead of
// vetoing their writes, matching a storage layer that spills
// partially rather than all-or-nothing.
func solvePlan(ws []WorkloadHeat, quotaBytes float64, cfg Config, c *counters) map[string]float64 {
	plan := make(map[string]float64)
	// The decay time constant: dividing the decayed byte-second mass by
	// it estimates the workload's recent average concurrent footprint.
	tau := cfg.halfLife() / math.Ln2
	var items []item
	for _, w := range ws {
		if w.Jobs < cfg.minJobs() {
			continue
		}
		if w.Savings < 0 {
			plan[w.Key] = 0
			continue
		}
		if w.Savings == 0 {
			// No realized value either way — the workload never landed
			// on SSD, so there is no measurement to act on. Absent from
			// the plan: defer to the write-time policy, which may start
			// admitting it as the mix drifts.
			continue
		}
		demand := w.ByteSec / tau
		if demand <= 0 {
			plan[w.Key] = 1
			continue
		}
		items = append(items, item{key: w.Key, demand: demand, value: w.Savings})
	}
	// Highest value density first; ties break on key so the order —
	// and with it the greedy fallback and the LP column order — is
	// deterministic.
	sort.Slice(items, func(i, j int) bool {
		di := items[i].value / items[i].demand
		dj := items[j].value / items[j].demand
		if di != dj {
			return di > dj
		}
		return items[i].key < items[j].key
	})
	if len(items) > cfg.maxWorkloads() {
		items = items[:cfg.maxWorkloads()]
	}
	c.solves.Add(1)
	c.workloads.Store(int64(len(ws)))
	c.planned.Store(int64(len(plan) + len(items)))

	var total float64
	for _, it := range items {
		total += it.demand
	}
	if total <= quotaBytes {
		// Uncontended: everything with positive realized value stays
		// fully resident; no LP needed.
		for _, it := range items {
			plan[it.key] = 1
		}
		return plan
	}

	prob := lp.Problem{
		C: make([]float64, len(items)),
		A: make([][]float64, 0, len(items)+1),
		B: make([]float64, 0, len(items)+1),
	}
	capRow := make([]float64, len(items))
	for i, it := range items {
		prob.C[i] = it.value
		capRow[i] = it.demand
	}
	prob.A = append(prob.A, capRow)
	prob.B = append(prob.B, quotaBytes)
	for i := range items {
		box := make([]float64, len(items))
		box[i] = 1
		prob.A = append(prob.A, box)
		prob.B = append(prob.B, 1)
	}
	sol, err := cfg.solver()(prob)
	if err == nil && sol.Status == lp.Optimal && len(sol.X) == len(items) {
		c.lpOptimal.Add(1)
		for i, it := range items {
			plan[it.key] = floorResidency(clampResidency(sol.X[i]), cfg)
		}
		return plan
	}
	// IterationLimit, Unbounded or a solver error: greedy rounding on
	// the density order — fill whole workloads until the quota binds,
	// give the marginal one the fractional remainder, demote the rest.
	// For this relaxation (one capacity row plus boxes) the greedy
	// fractional fill is itself optimal, so the fallback costs nothing
	// but the proof.
	c.lpFallbacks.Add(1)
	rem := quotaBytes
	for _, it := range items {
		switch {
		case it.demand <= rem:
			plan[it.key] = 1
			rem -= it.demand
		case rem > 0:
			plan[it.key] = floorResidency(clampResidency(rem/it.demand), cfg)
			rem = 0
		default:
			plan[it.key] = floorResidency(0, cfg)
		}
	}
	return plan
}

// floorResidency lifts a contention-excluded positive-value workload
// to the configured residency floor (demotion to 0 is reserved for
// measured-negative workloads, which never reach the solver).
func floorResidency(r float64, cfg Config) float64 {
	if m := cfg.minResidency(); r < m {
		return m
	}
	return r
}

// clampResidency snaps solver noise off the box bounds.
func clampResidency(x float64) float64 {
	switch {
	case x < 1e-9:
		return 0
	case x > 1-1e-9:
		return 1
	default:
		return x
	}
}
