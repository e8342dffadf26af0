// Package oracle implements the paper's clairvoyant placement oracle
// (Section 3.1): an Integer Linear Program that maximizes savings from
// SSD placement subject to the SSD capacity constraint at every point in
// time. It provides an exact branch-and-bound solver for small
// instances, bounded by the problem's LP relaxation solved exactly as a
// min-cost flow (relax), and a scalable greedy density solver with an
// exchange pass for cluster-scale traces, the latter validated against
// the former in tests.
package oracle

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cost"
	"repro/internal/trace"
)

// Objective selects what the oracle optimizes, mirroring the paper's
// "Oracle TCO" and "Oracle TCIO" variants.
type Objective int

const (
	// TCO maximizes total cost-of-ownership savings.
	TCO Objective = iota
	// TCIO maximizes I/O cost removed from HDDs.
	TCIO
)

func (o Objective) String() string {
	if o == TCIO {
		return "tcio"
	}
	return "tco"
}

// Solver limits.
const (
	// exactLimit is the maximum number of candidate jobs for which the
	// exact branch-and-bound is attempted; larger instances use the
	// greedy solver.
	exactLimit = 48
	// nodeBudget bounds branch-and-bound nodes; when exhausted the best
	// incumbent is returned with Exact=false.
	nodeBudget = 20000
)

// Config controls the solver.
type Config struct {
	Objective Objective
	// Fractional lets the greedy solver fill leftover capacity with
	// partial placements (x_i in [0,1]). The paper's simulator gives
	// partial-spillover credit, so the theoretical bound of Fig. 7 must
	// cover fractional placements too.
	Fractional bool
}

// DefaultConfig returns the solver defaults.
func DefaultConfig() Config {
	return Config{Objective: TCO}
}

// Result holds oracle placement decisions.
type Result struct {
	// OnSSD maps job ID -> placement decision (full placements).
	OnSSD map[string]bool
	// Frac maps job ID -> placed fraction in [0,1]. Integral solves
	// only contain 0/1 entries; fractional greedy may assign partial
	// fractions.
	Frac map[string]float64
	// Value is the achieved objective (fraction-weighted sum of values
	// of admitted jobs).
	Value float64
	// UpperBound is a valid upper bound on the optimum: the LP
	// relaxation's optimum for exact solves, the unconstrained positive
	// sum for greedy solves.
	UpperBound float64
	// Exact reports whether Value is provably optimal: branch and bound
	// finished inside its node budget, pruning only nodes whose bound
	// is within 1e-12 relative of the incumbent.
	Exact bool
}

// jobValue returns the objective coefficient of a job.
func jobValue(j *trace.Job, cm *cost.Model, obj Objective) float64 {
	if obj == TCIO {
		return cm.TCIO(j)
	}
	return cm.Savings(j)
}

// Solve computes oracle placement decisions for the jobs under the given
// SSD capacity (bytes). It dispatches to the exact solver when the
// number of positive-value candidates is within exactLimit.
func Solve(jobs []*trace.Job, capacity float64, cm *cost.Model, cfg Config) (*Result, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("oracle: negative capacity %g", capacity)
	}
	cands := candidates(jobs, capacity, cm, cfg.Objective)
	res := &Result{
		OnSSD: make(map[string]bool, len(jobs)),
		Frac:  make(map[string]float64, len(jobs)),
	}
	for _, j := range jobs {
		res.OnSSD[j.ID] = false
	}
	if len(cands) == 0 {
		res.Exact = true
		return res, nil
	}
	if len(cands) <= exactLimit && !cfg.Fractional {
		return solveExact(cands, capacity, res)
	}
	return solveGreedy(cands, capacity, res, cfg.Fractional), nil
}

// candidate pairs a job with its objective value.
type candidate struct {
	job   *trace.Job
	value float64
}

// candidates filters to jobs that could profitably fit: positive value
// and size within capacity. Jobs with non-positive value are never
// placed by an optimal solution of this maximization (their coefficient
// cannot help the objective and only consumes capacity).
func candidates(jobs []*trace.Job, capacity float64, cm *cost.Model, obj Objective) []candidate {
	out := make([]candidate, 0, len(jobs))
	for _, j := range jobs {
		v := jobValue(j, cm, obj)
		if v > 0 && j.SizeBytes <= capacity {
			out = append(out, candidate{job: j, value: v})
		}
	}
	return out
}

// timeIndex builds the sorted unique boundary times of the candidate
// jobs and a lookup from time to slot index. Slot k covers
// [times[k], times[k+1]).
type timeIndex struct {
	times []float64
	pos   map[float64]int
}

func buildTimeIndex(cands []candidate) *timeIndex {
	set := make(map[float64]bool, 2*len(cands))
	for _, c := range cands {
		set[c.job.ArrivalSec] = true
		set[c.job.EndSec()] = true
	}
	times := make([]float64, 0, len(set))
	for t := range set {
		times = append(times, t)
	}
	sort.Float64s(times)
	pos := make(map[float64]int, len(times))
	for i, t := range times {
		pos[t] = i
	}
	return &timeIndex{times: times, pos: pos}
}

func (ti *timeIndex) slotRange(j *trace.Job) (lo, hi int) {
	return ti.pos[j.ArrivalSec], ti.pos[j.EndSec()]
}

// solveGreedy runs two greedy passes — one ordered by value density
// (value per byte-second of SSD occupancy), one by absolute value —
// keeps the better, and finishes with a bounded 1-exchange improvement
// pass (swap one admitted job for a skipped higher-value one). Density
// order is near-optimal when jobs are small relative to capacity (the
// cluster-trace regime); value order covers the knapsack-y regime where
// a single large job beats several dense ones.
func solveGreedy(cands []candidate, capacity float64, res *Result, fractional bool) *Result {
	ti := buildTimeIndex(cands)

	density := func(c candidate) float64 {
		occ := c.job.SizeBytes * c.job.LifetimeSec
		if occ <= 0 {
			return math.Inf(1)
		}
		return c.value / occ
	}
	byDensity := func(a, b int) bool {
		da, db := density(cands[a]), density(cands[b])
		if da != db {
			return da > db
		}
		return cands[a].job.ID < cands[b].job.ID
	}
	byValue := func(a, b int) bool {
		if cands[a].value != cands[b].value {
			return cands[a].value > cands[b].value
		}
		return cands[a].job.ID < cands[b].job.ID
	}

	bestAdmitted := greedyPass(cands, capacity, ti, byDensity, byValue)
	alt := greedyPass(cands, capacity, ti, byValue, byDensity)
	if totalValue(cands, alt) > totalValue(cands, bestAdmitted) {
		bestAdmitted = alt
	}
	exchangePass(cands, capacity, ti, bestAdmitted)

	for i, c := range cands {
		if bestAdmitted[i] {
			res.OnSSD[c.job.ID] = true
			res.Frac[c.job.ID] = 1
			res.Value += c.value
		}
		res.UpperBound += c.value
	}
	if fractional {
		fractionalFill(cands, capacity, ti, bestAdmitted, res)
	}
	// Guard against summation-order float drift when everything fits.
	if res.Value > res.UpperBound {
		res.UpperBound = res.Value
	}
	res.Exact = false
	return res
}

// fractionalFill tops up leftover capacity with partial placements in
// value-density order: each remaining candidate takes the largest
// fraction that fits over its whole lifetime interval.
func fractionalFill(cands []candidate, capacity float64, ti *timeIndex, admitted []bool, res *Result) {
	st := newSegTree(len(ti.times) - 1)
	for i, c := range cands {
		if admitted[i] {
			lo, hi := ti.slotRange(c.job)
			st.Add(lo, hi, c.job.SizeBytes)
		}
	}
	order := make([]int, 0, len(cands))
	for i := range cands {
		if !admitted[i] {
			order = append(order, i)
		}
	}
	density := func(c candidate) float64 {
		occ := c.job.SizeBytes * c.job.LifetimeSec
		if occ <= 0 {
			return math.Inf(1)
		}
		return c.value / occ
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := density(cands[order[a]]), density(cands[order[b]])
		if da != db {
			return da > db
		}
		return cands[order[a]].job.ID < cands[order[b]].job.ID
	})
	for _, i := range order {
		c := cands[i]
		lo, hi := ti.slotRange(c.job)
		free := capacity - st.Max(lo, hi)
		if free <= 0 {
			continue
		}
		frac := free / c.job.SizeBytes
		if frac > 1 {
			frac = 1
		}
		st.Add(lo, hi, frac*c.job.SizeBytes)
		res.Frac[c.job.ID] = frac
		res.Value += frac * c.value
	}
}

// greedyPass admits candidates in primary order, then retries skipped
// ones in secondary order, and returns the admission mask.
func greedyPass(cands []candidate, capacity float64, ti *timeIndex,
	primary, secondary func(a, b int) bool) []bool {
	st := newSegTree(len(ti.times) - 1)
	admitted := make([]bool, len(cands))
	tryAdmit := func(i int) bool {
		c := cands[i]
		lo, hi := ti.slotRange(c.job)
		if st.Max(lo, hi)+c.job.SizeBytes > capacity+1e-6 {
			return false
		}
		st.Add(lo, hi, c.job.SizeBytes)
		admitted[i] = true
		return true
	}
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, primary)
	var skipped []int
	for _, i := range order {
		if !tryAdmit(i) {
			skipped = append(skipped, i)
		}
	}
	sort.SliceStable(skipped, secondary)
	for _, i := range skipped {
		tryAdmit(i)
	}
	return admitted
}

// exchangePass tries, for each skipped candidate in value order, to
// evict one lower-value admitted overlapping candidate to make room.
// The number of attempts is bounded so cluster-scale traces stay fast.
func exchangePass(cands []candidate, capacity float64, ti *timeIndex, admitted []bool) {
	st := newSegTree(len(ti.times) - 1)
	for i, c := range cands {
		if admitted[i] {
			lo, hi := ti.slotRange(c.job)
			st.Add(lo, hi, c.job.SizeBytes)
		}
	}
	var skipped []int
	for i := range cands {
		if !admitted[i] {
			skipped = append(skipped, i)
		}
	}
	sort.SliceStable(skipped, func(a, b int) bool {
		return cands[skipped[a]].value > cands[skipped[b]].value
	})
	const maxAttempts = 4000
	attempts := 0
	for _, s := range skipped {
		if attempts >= maxAttempts {
			break
		}
		cs := cands[s]
		lo, hi := ti.slotRange(cs.job)
		if st.Max(lo, hi)+cs.job.SizeBytes <= capacity+1e-6 {
			st.Add(lo, hi, cs.job.SizeBytes)
			admitted[s] = true
			continue
		}
		// Find the cheapest admitted overlapping job whose removal
		// makes s fit and whose value is lower.
		bestVictim := -1
		for v, cv := range cands {
			if !admitted[v] || cv.value >= cs.value {
				continue
			}
			if cv.job.EndSec() <= cs.job.ArrivalSec || cv.job.ArrivalSec >= cs.job.EndSec() {
				continue
			}
			if bestVictim < 0 || cv.value < cands[bestVictim].value {
				vlo, vhi := ti.slotRange(cv.job)
				st.Add(vlo, vhi, -cv.job.SizeBytes)
				fits := st.Max(lo, hi)+cs.job.SizeBytes <= capacity+1e-6
				st.Add(vlo, vhi, cv.job.SizeBytes)
				attempts++
				if fits {
					bestVictim = v
				}
			}
		}
		if bestVictim >= 0 {
			vlo, vhi := ti.slotRange(cands[bestVictim].job)
			st.Add(vlo, vhi, -cands[bestVictim].job.SizeBytes)
			admitted[bestVictim] = false
			st.Add(lo, hi, cs.job.SizeBytes)
			admitted[s] = true
		}
		attempts++
	}
}

func totalValue(cands []candidate, admitted []bool) float64 {
	var v float64
	for i, c := range cands {
		if admitted[i] {
			v += c.value
		}
	}
	return v
}

// solveExact runs depth-first branch and bound. A node's bound is the
// value of its candidates fixed in plus relax over its free ones, under
// the per-slot capacity the fixed ones leave; the root's bound is the
// reported UpperBound. It branches on the most fractional free
// candidate, placing it first.
func solveExact(cands []candidate, capacity float64, res *Result) (*Result, error) {
	ti := buildTimeIndex(cands)
	// Start from the greedy incumbent so pruning bites early.
	inc := solveGreedy(cands, capacity, &Result{OnSSD: map[string]bool{}, Frac: map[string]float64{}}, false)
	best, bestSet := inc.Value, make([]bool, len(cands))
	for i, c := range cands {
		bestSet[i] = inc.OnSSD[c.job.ID]
	}
	const free, in, out = 0, 1, 2
	state := make([]int8, len(cands))
	nodes, rootBound := 0, math.NaN()
	var recurse func()
	recurse = func() {
		nodes++
		if nodes > nodeBudget {
			return
		}
		caps := make([]float64, len(ti.times)-1)
		for t := range caps {
			caps[t] = capacity
		}
		fixed := 0.0
		var freeCands []candidate
		var freeIdx []int
		for i, c := range cands {
			switch state[i] {
			case in:
				fixed += c.value
				lo, hi := ti.slotRange(c.job)
				for t := lo; t < hi; t++ {
					caps[t] -= c.job.SizeBytes
				}
			case free:
				freeCands = append(freeCands, c)
				freeIdx = append(freeIdx, i)
			}
		}
		for t, c := range caps {
			if c < -1e-9*capacity {
				return
			}
			caps[t] = math.Max(0, c)
		}
		y, _ := relax(freeCands, ti, caps)
		bound, branch, branchDist := fixed, -1, 1e-6
		for k, c := range freeCands {
			x := y[k] / c.job.SizeBytes
			bound += c.value * x
			if d := math.Abs(x - math.Round(x)); d > branchDist {
				branch, branchDist = freeIdx[k], d
			}
		}
		if math.IsNaN(rootBound) {
			rootBound = bound
		}
		if bound <= best*(1+1e-12) {
			return
		}
		if branch < 0 {
			// Integral: the relaxation places exactly its x = 1 candidates.
			val := fixed
			for k, c := range freeCands {
				if y[k] > c.job.SizeBytes/2 {
					val += c.value
				}
			}
			if val > best {
				best = val
				for i := range cands {
					bestSet[i] = state[i] == in
				}
				for k, c := range freeCands {
					bestSet[freeIdx[k]] = y[k] > c.job.SizeBytes/2
				}
			}
			return
		}
		state[branch] = in
		recurse()
		state[branch] = out
		recurse()
		state[branch] = free
	}
	recurse()

	res.Value = best
	res.UpperBound = math.Max(rootBound, best)
	res.Exact = nodes <= nodeBudget
	for i, c := range cands {
		res.OnSSD[c.job.ID] = bestSet[i]
		if bestSet[i] {
			res.Frac[c.job.ID] = 1
		}
	}
	return res, nil
}

// Feasible verifies that a decision set never exceeds capacity at any
// instant: the check the oracle's tests hold every solver's placement
// to.
func Feasible(jobs []*trace.Job, onSSD map[string]bool, capacity float64) bool {
	type ev struct {
		at    float64
		delta float64
	}
	var events []ev
	for _, j := range jobs {
		if onSSD[j.ID] {
			events = append(events, ev{j.ArrivalSec, j.SizeBytes}, ev{j.EndSec(), -j.SizeBytes})
		}
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		return events[a].delta < events[b].delta
	})
	var usage float64
	for _, e := range events {
		usage += e.delta
		if usage > capacity+1e-6 {
			return false
		}
	}
	return true
}

// Value sums the objective coefficients of the admitted jobs under a
// decision set.
func Value(jobs []*trace.Job, onSSD map[string]bool, cm *cost.Model, obj Objective) float64 {
	var v float64
	for _, j := range jobs {
		if onSSD[j.ID] {
			v += jobValue(j, cm, obj)
		}
	}
	return v
}
