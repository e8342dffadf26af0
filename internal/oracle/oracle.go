// Package oracle implements the paper's clairvoyant placement oracle
// (Section 3.1): an Integer Linear Program that maximizes savings from
// SSD placement subject to the SSD capacity constraint at every point in
// time. It provides an exact branch-and-bound solver (LP-relaxation
// bounds via internal/lp) for small instances and a scalable greedy
// density solver with an exchange pass for cluster-scale traces, the
// latter validated against the former in tests.
package oracle

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cost"
	"repro/internal/lp"
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
	// relaxation for exact solves, the unconstrained positive sum for
	// greedy solves.
	UpperBound float64
	// Exact reports whether the result is provably optimal.
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

// solveExact runs depth-first branch and bound with LP-relaxation
// bounds. The relaxation has one variable per candidate (0 <= x <= 1)
// and one capacity row per distinct arrival time (usage only increases
// at arrivals, so those are the binding instants).
func solveExact(cands []candidate, capacity float64, res *Result) (*Result, error) {
	n := len(cands)
	// Constraint rows: at each candidate's arrival time, sum of sizes of
	// active candidates <= capacity.
	arrivalTimes := make([]float64, 0, n)
	seen := map[float64]bool{}
	for _, c := range cands {
		t := c.job.ArrivalSec
		if !seen[t] {
			seen[t] = true
			arrivalTimes = append(arrivalTimes, t)
		}
	}
	sort.Float64s(arrivalTimes)
	active := make([][]int, len(arrivalTimes)) // row -> candidate indices
	for i, c := range cands {
		for r, t := range arrivalTimes {
			if c.job.ArrivalSec <= t && t < c.job.EndSec() {
				active[r] = append(active[r], i)
			}
		}
	}

	// Start from the greedy incumbent so pruning bites early.
	greedyRes := &Result{OnSSD: make(map[string]bool), Frac: make(map[string]float64)}
	solveGreedy(cands, capacity, greedyRes, false)
	best := greedyRes.Value
	bestSet := make([]bool, n)
	for i, c := range cands {
		bestSet[i] = greedyRes.OnSSD[c.job.ID]
	}

	const (
		free   = -1
		fixed0 = 0
		fixed1 = 1
	)
	state := make([]int, n)
	for i := range state {
		state[i] = free
	}
	nodes := 0
	exhausted := false
	var rootBound float64
	rootBoundSet := false

	var recurse func()
	recurse = func() {
		if nodes >= nodeBudget {
			exhausted = true
			return
		}
		nodes++

		// Residual capacities; prune infeasible fixings.
		rhs := make([]float64, len(arrivalTimes))
		for r := range rhs {
			rhs[r] = capacity
			for _, i := range active[r] {
				if state[i] == fixed1 {
					rhs[r] -= cands[i].job.SizeBytes
				}
			}
			if rhs[r] < -1e-6 {
				return
			}
			if rhs[r] < 0 {
				rhs[r] = 0
			}
		}
		var fixedValue float64
		for i := range cands {
			if state[i] == fixed1 {
				fixedValue += cands[i].value
			}
		}
		// Build LP over free variables.
		freeIdx := make([]int, 0, n)
		for i := range cands {
			if state[i] == free {
				freeIdx = append(freeIdx, i)
			}
		}
		if len(freeIdx) == 0 {
			if fixedValue > best {
				best = fixedValue
				for i := range cands {
					bestSet[i] = state[i] == fixed1
				}
			}
			return
		}
		col := make(map[int]int, len(freeIdx))
		for c, i := range freeIdx {
			col[i] = c
		}
		prob := lp.Problem{C: make([]float64, len(freeIdx))}
		for c, i := range freeIdx {
			prob.C[c] = cands[i].value
		}
		for r := range arrivalTimes {
			row := make([]float64, len(freeIdx))
			any := false
			for _, i := range active[r] {
				if c, ok := col[i]; ok {
					row[c] = cands[i].job.SizeBytes
					any = true
				}
			}
			if any {
				prob.A = append(prob.A, row)
				prob.B = append(prob.B, rhs[r])
			}
		}
		for c := range freeIdx {
			row := make([]float64, len(freeIdx))
			row[c] = 1
			prob.A = append(prob.A, row)
			prob.B = append(prob.B, 1)
		}
		sol, err := lp.Solve(prob)
		if err != nil || sol.Status == lp.Unbounded {
			return // should not happen with box constraints; treat as pruned
		}
		bound := fixedValue + sol.Objective
		if !rootBoundSet {
			rootBound = bound
			rootBoundSet = true
		}
		if bound <= best+1e-9 {
			return
		}
		// Integral?
		fracIdx, fracDist := -1, -1.0
		for c, x := range sol.X {
			d := math.Abs(x - math.Round(x))
			if d > 1e-6 && d > fracDist {
				fracDist = d
				fracIdx = c
			}
		}
		if fracIdx < 0 {
			// Integral solution: admits exactly the x=1 vars.
			val := fixedValue
			for c, x := range sol.X {
				if x > 0.5 {
					val += cands[freeIdx[c]].value
				}
			}
			if val > best {
				best = val
				for i := range cands {
					bestSet[i] = state[i] == fixed1
				}
				for c, x := range sol.X {
					if x > 0.5 {
						bestSet[freeIdx[c]] = true
					}
				}
			}
			return
		}
		branchVar := freeIdx[fracIdx]
		state[branchVar] = fixed1
		recurse()
		state[branchVar] = fixed0
		recurse()
		state[branchVar] = free
	}
	recurse()

	res.Value = best
	for i, c := range cands {
		res.OnSSD[c.job.ID] = bestSet[i]
		if bestSet[i] {
			res.Frac[c.job.ID] = 1
		}
	}
	if rootBoundSet {
		res.UpperBound = rootBound
	} else {
		for _, c := range cands {
			res.UpperBound += c.value
		}
	}
	res.Exact = !exhausted
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
