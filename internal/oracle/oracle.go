// Package oracle implements the paper's clairvoyant placement oracle
// (Section 3.1): an Integer Linear Program that maximizes savings from
// SSD placement subject to the SSD capacity constraint at every point in
// time. One algorithm serves every scale: the problem's LP relaxation,
// solved exactly as a min-cost flow built one job at a time (relax).
// Fractional solves return it; integral ones round it down and top it
// up with whole jobs, or, on small instances, branch and bound on it.
// Every solve reports the LP value as its UpperBound.
package oracle

import (
	"fmt"
	"math"
	"slices"
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
	// exact branch-and-bound is attempted; larger instances keep the
	// LP's round-down.
	exactLimit = 48
	// nodeBudget bounds branch-and-bound nodes; when exhausted the best
	// incumbent is returned with Exact=false.
	nodeBudget = 20000
)

// Config controls the solver.
type Config struct {
	Objective Objective
	// Fractional returns the LP relaxation itself: partial placements
	// x_i in [0,1]. The paper's simulator gives partial-spillover
	// credit, so the theoretical bound of Fig. 7 must cover fractional
	// placements too.
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
	// Frac maps job ID -> placed fraction in [0,1]: y/s of the LP for
	// fractional solves, only 1 entries for integral ones.
	Frac map[string]float64
	// Value is the achieved objective (fraction-weighted sum of values
	// of admitted jobs).
	Value float64
	// UpperBound is the LP relaxation's optimum, a bound on every
	// placement, fractional or whole.
	UpperBound float64
	// Exact reports whether Value is provably optimal: always for
	// fractional solves, and for integral ones when branch and bound
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
// SSD capacity (bytes). An integral solve with at most exactLimit
// positive-value candidates runs the exact solver; every other solve is
// solveRelaxed's.
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
	return solveRelaxed(cands, capacity, res, cfg.Fractional), nil
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

// slotRanges indexes the candidates' sorted unique boundary times.
// Slot t covers [times[t], times[t+1]), and candidate j occupies slots
// lo[j] through hi[j]-1.
func slotRanges(cands []candidate) (lo, hi []int, slots int) {
	times := make([]float64, 0, 2*len(cands))
	for _, c := range cands {
		times = append(times, c.job.ArrivalSec, c.job.EndSec())
	}
	sort.Float64s(times)
	times = slices.Compact(times)
	lo, hi = make([]int, len(cands)), make([]int, len(cands))
	for j, c := range cands {
		lo[j] = sort.SearchFloat64s(times, c.job.ArrivalSec)
		hi[j] = sort.SearchFloat64s(times, c.job.EndSec())
	}
	return lo, hi, len(times) - 1
}

// cliqueRanges maps each candidate onto the run of the interval graph's
// maximal cliques it spans: the slots whose left boundary is an arrival
// and whose right boundary is an end. Under one capacity everywhere
// only those rows bind, since every other slot's live set is a subset
// of a neighbouring slot's.
func cliqueRanges(cands []candidate) (lo, hi []int, cliques int) {
	lo, hi, slots := slotRanges(cands)
	arrives, ends := make([]bool, slots+1), make([]bool, slots+1)
	for j := range cands {
		arrives[lo[j]], ends[hi[j]] = true, true
	}
	before := make([]int, slots+1) // before[t] counts the cliques among slots < t
	for t := 0; t < slots; t++ {
		before[t+1] = before[t]
		if arrives[t] && ends[t+1] {
			before[t+1]++
		}
	}
	for j := range cands {
		lo[j], hi[j] = before[lo[j]], before[hi[j]]
	}
	return lo, hi, before[slots]
}

// solveRelaxed solves the LP relaxation over the clique slots. A
// fractional solve returns it as is. An integral one keeps the
// candidates the LP places whole, then tops up with whole candidates in
// value-per-byte-second order wherever they still fit. Both report the
// LP value as UpperBound.
func solveRelaxed(cands []candidate, capacity float64, res *Result, fractional bool) *Result {
	lo, hi, cliques := cliqueRanges(cands)
	caps := make([]float64, cliques)
	for k := range caps {
		caps[k] = capacity
	}
	y, _ := relax(cands, lo, hi, caps)
	load := make([]float64, cliques)
	place := func(j int) {
		res.OnSSD[cands[j].job.ID] = true
		for k := lo[j]; k < hi[j]; k++ {
			load[k] += cands[j].job.SizeBytes
		}
	}
	var rest []int
	for j, c := range cands {
		x := y[j] / c.job.SizeBytes
		res.UpperBound += c.value * x
		if fractional {
			res.Frac[c.job.ID] = x
		}
		if x >= 1-1e-9 {
			place(j)
		} else {
			rest = append(rest, j)
		}
	}
	if fractional {
		res.Value, res.Exact = res.UpperBound, true
		return res
	}
	density := func(j int) float64 {
		return cands[j].value / (cands[j].job.SizeBytes * cands[j].job.LifetimeSec)
	}
	sort.SliceStable(rest, func(a, b int) bool { return density(rest[a]) > density(rest[b]) })
	for _, j := range rest {
		fits := true
		for k := lo[j]; k < hi[j] && fits; k++ {
			fits = load[k]+cands[j].job.SizeBytes <= capacity
		}
		if fits {
			place(j)
		}
	}
	for _, c := range cands {
		if res.OnSSD[c.job.ID] {
			res.Frac[c.job.ID] = 1
			res.Value += c.value
		}
	}
	return res
}

// solveExact runs depth-first branch and bound from solveRelaxed's
// incumbent. A node's bound is the value of its candidates fixed in
// plus relax over its free ones, under the per-slot capacity the fixed
// ones leave; those capacities vary, so the full slot index is used.
// The root's bound is the reported UpperBound. It branches on the most
// fractional free candidate, placing it first.
func solveExact(cands []candidate, capacity float64, res *Result) (*Result, error) {
	lo, hi, slots := slotRanges(cands)
	inc := solveRelaxed(cands, capacity, &Result{OnSSD: map[string]bool{}, Frac: map[string]float64{}}, false)
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
		caps := make([]float64, slots)
		for t := range caps {
			caps[t] = capacity
		}
		fixed := 0.0
		var freeCands []candidate
		var freeIdx, freeLo, freeHi []int
		for i, c := range cands {
			switch state[i] {
			case in:
				fixed += c.value
				for t := lo[i]; t < hi[i]; t++ {
					caps[t] -= c.job.SizeBytes
				}
			case free:
				freeCands = append(freeCands, c)
				freeIdx = append(freeIdx, i)
				freeLo, freeHi = append(freeLo, lo[i]), append(freeHi, hi[i])
			}
		}
		for t, c := range caps {
			if c < -1e-9*capacity {
				return
			}
			caps[t] = math.Max(0, c)
		}
		y, _ := relax(freeCands, freeLo, freeHi, caps)
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
