package oracle

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cost"
	"repro/internal/trace"
)

// Feasible verifies that a decision set never exceeds capacity at any
// instant: the check these tests hold every solver's placement to.
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

// hotJob returns a job with positive SSD savings.
func hotJob(id string, arrival, lifetime, size float64) *trace.Job {
	return &trace.Job{
		ID: id, ArrivalSec: arrival, LifetimeSec: lifetime, SizeBytes: size,
		ReadBytes: size * 50, WriteBytes: size * 1.2,
		AvgReadSizeBytes: 32 * 1024, CacheHitFrac: 0.1,
	}
}

// coldJob returns a job with negative SSD savings (write-dominated).
func coldJob(id string, arrival, lifetime, size float64) *trace.Job {
	return &trace.Job{
		ID: id, ArrivalSec: arrival, LifetimeSec: lifetime, SizeBytes: size,
		ReadBytes: size * 0.05, WriteBytes: size * 1.5,
		AvgReadSizeBytes: 8 << 20, CacheHitFrac: 0.6,
	}
}

func TestSolveEmptyAndZeroCapacity(t *testing.T) {
	cm := cost.Default()
	cfg := DefaultConfig()
	r, err := Solve(nil, 100, cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 0 || !r.Exact {
		t.Errorf("empty solve: %+v", r)
	}
	jobs := []*trace.Job{hotJob("a", 0, 100, 1e9)}
	r, err = Solve(jobs, 0, cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.OnSSD["a"] || r.Value != 0 {
		t.Errorf("zero capacity admitted a job: %+v", r)
	}
	if _, err := Solve(jobs, -1, cm, cfg); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestSolveNeverAdmitsNegative(t *testing.T) {
	cm := cost.Default()
	jobs := []*trace.Job{
		hotJob("hot", 0, 100, 1e9),
		coldJob("cold", 0, 100, 1e9),
	}
	if cm.Savings(jobs[1]) >= 0 {
		t.Fatalf("test setup: cold job has savings %g >= 0", cm.Savings(jobs[1]))
	}
	r, err := Solve(jobs, 1e10, cm, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !r.OnSSD["hot"] {
		t.Error("hot job should be admitted with ample capacity")
	}
	if r.OnSSD["cold"] {
		t.Error("negative-savings job admitted")
	}
}

func TestSolveExactPrefersValueOverDensity(t *testing.T) {
	cm := cost.Default()
	// One big hot job vs two small overlapping ones. Capacity fits either
	// the big one or both small ones; the big one is worth more in total
	// but the small ones are denser. Exact must pick the better sum.
	big := hotJob("big", 0, 100, 900)
	s1 := hotJob("s1", 0, 100, 300)
	s2 := hotJob("s2", 0, 100, 300)
	jobs := []*trace.Job{big, s1, s2}
	vBig := cm.Savings(big)
	vSmall := cm.Savings(s1) + cm.Savings(s2)
	r, err := Solve(jobs, 900, cm, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exact {
		t.Fatal("instance should be exactly solvable")
	}
	want := math.Max(vBig, vSmall)
	if math.Abs(r.Value-want) > want*1e-6 {
		t.Errorf("value = %g, want %g (big=%g, small pair=%g)", r.Value, want, vBig, vSmall)
	}
}

// bruteForce enumerates every feasible subset by include/exclude
// recursion; a branch stops only when its last inclusion overflows, and
// adding jobs never lowers a load.
func bruteForce(jobs []*trace.Job, capacity float64, cm *cost.Model, obj Objective) float64 {
	var chosen []*trace.Job
	fits := func(j *trace.Job) bool {
		// Load peaks at arrivals: check those inside j's lifetime.
		for _, c := range chosen {
			if c.ArrivalSec < j.ArrivalSec || c.ArrivalSec >= j.EndSec() {
				continue
			}
			var load float64
			for _, o := range chosen {
				if o.ArrivalSec <= c.ArrivalSec && c.ArrivalSec < o.EndSec() {
					load += o.SizeBytes
				}
			}
			if load > capacity+1e-6 {
				return false
			}
		}
		return true
	}
	best := 0.0
	var rec func(i int, val float64)
	rec = func(i int, val float64) {
		if i == len(jobs) {
			best = math.Max(best, val)
			return
		}
		rec(i+1, val)
		chosen = append(chosen, jobs[i])
		if fits(jobs[i]) {
			rec(i+1, val+jobValue(jobs[i], cm, obj))
		}
		chosen = chosen[:len(chosen)-1]
	}
	rec(0, 0)
	return best
}

func randomInstance(rng *rand.Rand, n int) []*trace.Job {
	jobs := make([]*trace.Job, n)
	for i := 0; i < n; i++ {
		arrival := rng.Float64() * 1000
		life := 50 + rng.Float64()*500
		size := 100 + rng.Float64()*900
		if rng.Float64() < 0.3 {
			jobs[i] = coldJob(idFor(i), arrival, life, size)
		} else {
			jobs[i] = hotJob(idFor(i), arrival, life, size)
		}
	}
	return jobs
}

func idFor(i int) string { return string(rune('a'+i%26)) + string(rune('0'+i/26)) }

// TestSolveExactMatchesBruteForce holds every Exact answer to the
// brute-force optimum within 1e-9 relative. Job values run from 1e-9 to
// 1e-3, so an absolute tolerance would forgive whole percents.
func TestSolveExactMatchesBruteForce(t *testing.T) {
	cm := cost.Default()
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 400; trial++ {
		n := 3 + rng.Intn(12)
		jobs := randomInstance(rng, n)
		capacity := 300 + rng.Float64()*1500
		for _, obj := range []Objective{TCO, TCIO} {
			cfg := DefaultConfig()
			cfg.Objective = obj
			r, err := Solve(jobs, capacity, cm, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Exact {
				t.Fatalf("trial %d: small instance not solved exactly", trial)
			}
			want := bruteForce(jobs, capacity, cm, obj)
			if (want-r.Value)/want > 1e-9 {
				t.Errorf("trial %d obj %v (%d jobs): exact = %g, brute force = %g (%.3g%% short)",
					trial, obj, n, r.Value, want, 100*(want-r.Value)/want)
			}
			if !Feasible(jobs, r.OnSSD, capacity) {
				t.Errorf("trial %d: exact solution infeasible", trial)
			}
			if r.Value > r.UpperBound*(1+1e-9) {
				t.Errorf("trial %d: value %g exceeds upper bound %g", trial, r.Value, r.UpperBound)
			}
			// The cluster-scale path brackets the optimum: its round-down
			// is feasible, so at most brute force (up to summation
			// order), and its LP value is at least brute force.
			rd := roundDown(jobs, capacity, cm, obj)
			if !Feasible(jobs, rd.OnSSD, capacity) {
				t.Errorf("trial %d obj %v: round-down infeasible", trial, obj)
			}
			if rd.Value > want*(1+1e-12) || want > rd.UpperBound*(1+1e-9) {
				t.Errorf("trial %d obj %v: want round-down %g <= brute force %g <= LP %g",
					trial, obj, rd.Value, want, rd.UpperBound)
			}
		}
	}
}

// roundDown is Solve's integral cluster-scale path for an instance of
// any size: the LP's whole placements, topped up greedily with whole
// jobs where they fit.
func roundDown(jobs []*trace.Job, capacity float64, cm *cost.Model, obj Objective) *Result {
	res := &Result{OnSSD: map[string]bool{}, Frac: map[string]float64{}}
	cands := candidates(jobs, capacity, cm, obj)
	if len(cands) == 0 {
		return res
	}
	return solveRelaxed(cands, capacity, res, false)
}

// TestGreedyNearOptimalAdversarial uses jobs whose sizes are comparable
// to the capacity — the worst regime (pure knapsack) for the LP's
// round-down and its greedy top-up. It stays within a moderate factor
// of exact, and it must never beat exact or go infeasible.
func TestGreedyNearOptimalAdversarial(t *testing.T) {
	cm := cost.Default()
	rng := rand.New(rand.NewSource(41))
	var worst float64 = 1
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(10)
		jobs := randomInstance(rng, n)
		capacity := 500 + rng.Float64()*2000

		exact, err := Solve(jobs, capacity, cm, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !exact.Exact {
			continue
		}
		greedy := roundDown(jobs, capacity, cm, TCO)
		if !Feasible(jobs, greedy.OnSSD, capacity) {
			t.Fatalf("trial %d: greedy infeasible", trial)
		}
		if greedy.Value > exact.Value*(1+1e-12) {
			t.Fatalf("trial %d: greedy %g beats exact %g", trial, greedy.Value, exact.Value)
		}
		if exact.Value > 0 {
			ratio := greedy.Value / exact.Value
			if ratio < worst {
				worst = ratio
			}
		}
	}
	t.Logf("worst adversarial round-down/exact ratio %.3f", worst)
	if worst < 0.6 {
		t.Errorf("worst adversarial greedy/exact ratio = %.3f, want >= 0.6", worst)
	}
}

// TestGreedyNearOptimalSmallJobs covers the regime the oracle actually
// runs in on cluster traces: every job is small relative to capacity.
// There the round-down must be within a few percent of exact.
func TestGreedyNearOptimalSmallJobs(t *testing.T) {
	cm := cost.Default()
	rng := rand.New(rand.NewSource(43))
	var worst float64 = 1
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(10)
		jobs := make([]*trace.Job, n)
		for i := 0; i < n; i++ {
			arrival := rng.Float64() * 1000
			life := 50 + rng.Float64()*500
			size := 10 + rng.Float64()*30 // << capacity
			if rng.Float64() < 0.3 {
				jobs[i] = coldJob(idFor(i), arrival, life, size)
			} else {
				jobs[i] = hotJob(idFor(i), arrival, life, size)
			}
		}
		capacity := 120 + rng.Float64()*200

		exact, err := Solve(jobs, capacity, cm, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !exact.Exact {
			continue
		}
		greedy := roundDown(jobs, capacity, cm, TCO)
		if !Feasible(jobs, greedy.OnSSD, capacity) {
			t.Fatalf("trial %d: greedy infeasible", trial)
		}
		if exact.Value > 0 {
			ratio := greedy.Value / exact.Value
			if ratio < worst {
				worst = ratio
			}
		}
	}
	t.Logf("worst small-job round-down/exact ratio %.3f", worst)
	if worst < 0.95 {
		t.Errorf("worst small-job greedy/exact ratio = %.3f, want >= 0.95", worst)
	}
}

// TestRoundDownLargeInstanceFeasible holds the integral cluster-scale
// solve to capacity, to its own decision set and to its LP bound: at
// least 80 % of it at every quota, both objectives.
func TestRoundDownLargeInstanceFeasible(t *testing.T) {
	cm := cost.Default()
	cfg := trace.DefaultGeneratorConfig("C0", 55)
	cfg.DurationSec = 2 * 24 * 3600
	tr := trace.NewGenerator(cfg).Generate()
	for _, quota := range []float64{0.005, 0.01, 0.05, 0.2} {
		for _, obj := range []Objective{TCO, TCIO} {
			capacity := tr.PeakSSDUsage() * quota
			r, err := Solve(tr.Jobs, capacity, cm, Config{Objective: obj})
			if err != nil {
				t.Fatal(err)
			}
			if r.Exact {
				t.Skip("instance unexpectedly small")
			}
			if !Feasible(tr.Jobs, r.OnSSD, capacity) {
				t.Fatalf("quota %g %v: solution violates capacity on a cluster-scale trace", quota, obj)
			}
			if r.Value <= 0 {
				t.Errorf("quota %g %v: found no savings on a cluster-scale trace", quota, obj)
			}
			if r.Value > r.UpperBound {
				t.Errorf("quota %g %v: value %g exceeds bound %g", quota, obj, r.Value, r.UpperBound)
			}
			if r.Value < 0.8*r.UpperBound {
				t.Errorf("quota %g %v: value %g is %.3f of the LP bound %g, want >= 0.8",
					quota, obj, r.Value, r.Value/r.UpperBound, r.UpperBound)
			}
			t.Logf("quota %g %v: value/LP %.3f", quota, obj, r.Value/r.UpperBound)
			// Consistency between reported value and the decision set.
			recomputed := Value(tr.Jobs, r.OnSSD, cm, obj)
			if math.Abs(recomputed-r.Value) > math.Abs(r.Value)*1e-9 {
				t.Errorf("quota %g %v: reported value %g != recomputed %g", quota, obj, r.Value, recomputed)
			}
		}
	}
}

func TestOracleMonotoneInCapacity(t *testing.T) {
	cm := cost.Default()
	rng := rand.New(rand.NewSource(61))
	jobs := randomInstance(rng, 14)
	prev := -1.0
	for _, frac := range []float64{0, 0.25, 0.5, 1, 2} {
		r, err := Solve(jobs, frac*2000, cm, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if r.Value < prev-1e-9 {
			t.Fatalf("oracle value decreased with more capacity: %g after %g", r.Value, prev)
		}
		prev = r.Value
	}
}

func TestFeasible(t *testing.T) {
	jobs := []*trace.Job{
		hotJob("a", 0, 100, 60),
		hotJob("b", 50, 100, 60),
	}
	both := map[string]bool{"a": true, "b": true}
	if Feasible(jobs, both, 100) {
		t.Error("overlapping jobs exceeding capacity reported feasible")
	}
	if !Feasible(jobs, both, 120) {
		t.Error("fitting jobs reported infeasible")
	}
	one := map[string]bool{"a": true}
	if !Feasible(jobs, one, 60) {
		t.Error("single job reported infeasible")
	}
}

func TestObjectiveString(t *testing.T) {
	if TCO.String() != "tco" || TCIO.String() != "tcio" {
		t.Errorf("objective strings: %s %s", TCO, TCIO)
	}
}
