package rebalance

import (
	"cmp"
	"math"
	"slices"
)

// Config tunes a rebalancer: the two values a scenario spec sets. The
// plan's heat floor and residency floor are the constants minJobs and
// minResidency.
type Config struct {
	// HalfLifeSec is the heat decay half-life in virtual seconds
	// (0 = 6 hours): the memory of the access-recency/frequency signal.
	HalfLifeSec float64
	// SolveIntervalSec is the knapsack re-solve cadence in virtual
	// seconds (0 = 1 hour). The first solve happens one interval after
	// the first decision, so the tracker warms up before the plan can
	// veto anything.
	SolveIntervalSec float64
}

const (
	// minJobs is the decayed arrival mass a workload needs before the
	// plan covers it; colder templates defer entirely to the write-time
	// policy.
	minJobs = 3
	// minResidency floors the planned residency of workloads with
	// positive realized value. The knapsack prices a
	// contention-excluded workload at zero, but the storage layer
	// spills partially rather than all-or-nothing — so exclusion
	// executes as an early eviction at this floor, not a write-time
	// veto. Only workloads whose measured savings are negative get the
	// hard residency-0 demotion.
	minResidency = 0.1
)

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
// residency fractions x in [0,1]. It fills the residency plan, keyed
// by template. Workloads below the heat floor, or with exactly zero
// realized value (never actually placed — nothing measured), are
// absent from the plan and defer to the write-time policy; workloads
// with negative realized value get residency 0 outright — SSD has
// been costing money on them, so no capacity math can justify them.
// Positive-value workloads priced out of a contended quota are floored
// at minResidency: the plan shortens their stay instead of vetoing
// their writes, matching a storage layer that spills partially rather
// than all-or-nothing.
//
// plan is cleared first, and items is the caller's candidate buffer,
// returned for the next solve: a Policy keeps both, so a warm solve
// allocates nothing.
func solvePlan(plan map[string]float64, items []item, ws []WorkloadHeat, quotaBytes float64, cfg Config, c *counters) []item {
	clear(plan)
	items = items[:0]
	// The decay time constant: dividing the decayed byte-second mass by
	// it estimates the workload's recent average concurrent footprint.
	tau := cfg.halfLife() / math.Ln2
	for _, w := range ws {
		if w.Jobs < minJobs {
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
	// Highest value density first; ties break on key so the fill is
	// deterministic.
	slices.SortFunc(items, func(a, b item) int {
		da, db := a.value/a.demand, b.value/b.demand
		if da != db {
			if da > db {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.key, b.key)
	})
	c.solves.Add(1)
	c.workloads.Store(int64(len(ws)))
	c.planned.Store(int64(len(plan) + len(items)))

	var total float64
	for _, it := range items {
		total += it.demand
	}
	if total <= quotaBytes {
		// Uncontended: everything with positive realized value stays
		// fully resident.
		for _, it := range items {
			plan[it.key] = 1
		}
		return items
	}
	// One capacity row plus a [0,1] box per workload is a fractional
	// knapsack, and the density-order fill is its optimum: any solution
	// that leaves quota to a lower-density workload while a denser one
	// is short gains by moving bytes to the denser one. Fill whole
	// workloads until the quota binds, give the marginal one the
	// remainder, floor the rest.
	rem := quotaBytes
	for _, it := range items {
		switch {
		case it.demand <= rem:
			plan[it.key] = 1
			rem -= it.demand
		case rem > 0:
			plan[it.key] = math.Max(rem/it.demand, minResidency)
			rem = 0
		default:
			plan[it.key] = minResidency
		}
	}
	return items
}
