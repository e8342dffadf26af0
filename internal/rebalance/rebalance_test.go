package rebalance

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/trace"
)

// hotJob is an I/O-dense, read-heavy, short-lived job: SSD placement
// earns money on it under the default cost model.
func hotJob(id string, at float64) *trace.Job {
	return &trace.Job{
		ID: id, Pipeline: "hot", Step: "s",
		ArrivalSec: at, LifetimeSec: 1800,
		SizeBytes: 2 << 30, ReadBytes: 200 << 30, WriteBytes: 2 << 30,
		AvgReadSizeBytes: 8 << 10,
	}
}

// coldJob is a large, write-heavy, long-lived job: SSD wear exceeds the
// HDD costs avoided, so its realized savings are negative.
func coldJob(id string, at float64) *trace.Job {
	return &trace.Job{
		ID: id, Pipeline: "cold", Step: "s",
		ArrivalSec: at, LifetimeSec: 12 * 3600,
		SizeBytes: 64 << 30, ReadBytes: 1 << 30, WriteBytes: 64 << 30,
		AvgReadSizeBytes: 1 << 20,
	}
}

// placed is the outcome of a job that landed fully on SSD and stayed
// for its whole lifetime: realized savings equal the full-placement
// estimate, which the heat tests below reason about.
func placed() sim.Outcome {
	return sim.Outcome{WantedSSD: true, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}
}

func TestJobShapeSavingsSigns(t *testing.T) {
	cm := cost.Default()
	if s := cm.Savings(hotJob("h", 0)); s <= 0 {
		t.Fatalf("hot job savings = %g, want > 0", s)
	}
	if s := cm.Savings(coldJob("c", 0)); s >= 0 {
		t.Fatalf("cold job savings = %g, want < 0", s)
	}
}

func TestHeatTrackerDecay(t *testing.T) {
	cm := cost.Default()
	h := NewHeatTracker(cm, 100)
	j := hotJob("h0", 0)
	h.Observe(j, placed())
	sav := cm.Savings(j)

	ws := h.snapshotInto(nil, 100) // exactly one half-life later
	if len(ws) != 1 {
		t.Fatalf("snapshot has %d workloads, want 1", len(ws))
	}
	w := ws[0]
	if w.Key != "hot/s" {
		t.Fatalf("key = %q, want hot/s", w.Key)
	}
	const tol = 1e-12
	if math.Abs(w.Jobs-0.5) > tol {
		t.Errorf("Jobs = %g, want 0.5", w.Jobs)
	}
	if want := 0.5 * float64(j.SizeBytes); math.Abs(w.Bytes-want) > tol*want {
		t.Errorf("Bytes = %g, want %g", w.Bytes, want)
	}
	if want := 0.5 * j.SizeBytes * j.LifetimeSec; math.Abs(w.ByteSec-want) > tol*want {
		t.Errorf("ByteSec = %g, want %g", w.ByteSec, want)
	}
	if want := 0.5 * sav; math.Abs(w.Savings-want) > tol*math.Abs(want) {
		t.Errorf("Savings = %g, want %g", w.Savings, want)
	}
	if w.LastSec != 100 {
		t.Errorf("LastSec = %g, want 100", w.LastSec)
	}
}

func TestHeatTrackerOutOfOrder(t *testing.T) {
	cm := cost.Default()
	// Deliver the newer observation first, as a daemon's concurrent
	// outcome posts can: the older job must still add its mass, with no
	// negative decay blowing the accumulators up.
	h := NewHeatTracker(cm, 100)
	h.Observe(hotJob("h1", 100), placed())
	h.Observe(hotJob("h0", 0), placed())
	if h.Len() != 1 {
		t.Fatalf("Len = %d, want 1", h.Len())
	}
	w := h.snapshotInto(nil, 100)[0]
	if w.Jobs != 2 {
		t.Errorf("Jobs = %g, want exactly 2 (no decay between out-of-order observations)", w.Jobs)
	}
	if w.LastSec != 100 {
		t.Errorf("LastSec = %g, want 100", w.LastSec)
	}
}

func TestHeatTrackerRejectsNonFinite(t *testing.T) {
	h := NewHeatTracker(cost.Default(), 100)
	h.Observe(nil, placed())
	bad := hotJob("b", 0)
	bad.ArrivalSec = math.NaN()
	h.Observe(bad, placed())
	bad2 := hotJob("b2", 0)
	bad2.SizeBytes = math.Inf(1)
	h.Observe(bad2, placed())
	if h.Len() != 0 {
		t.Fatalf("tracker accepted non-finite observations: Len = %d", h.Len())
	}
	if got := h.Stats().Observations; got != 0 {
		t.Fatalf("observations counter = %d, want 0", got)
	}
}

func TestHeatTrackerRealizedSavings(t *testing.T) {
	cm := cost.Default()
	h := NewHeatTracker(cm, 100)
	j := hotJob("h0", 0)

	// Never landed on SSD: mass accumulates, value realized is zero —
	// not the full-placement estimate.
	h.Observe(j, sim.Outcome{WantedSSD: false, SpilledAt: -1, EvictedAt: -1})
	w := h.snapshotInto(nil, 0)[0]
	if w.Savings != 0 {
		t.Errorf("rejected job realized savings = %g, want 0", w.Savings)
	}
	if w.Jobs != 1 || w.Bytes != j.SizeBytes {
		t.Errorf("rejected job mass = (%g jobs, %g bytes), want (1, %g)", w.Jobs, w.Bytes, j.SizeBytes)
	}

	// Half spilled, evicted halfway through the lifetime: realized
	// savings match the cost model's partial accounting exactly.
	o := sim.Outcome{WantedSSD: true, FracOnSSD: 0.5, SpilledAt: 0, EvictedAt: j.ArrivalSec + 0.5*j.LifetimeSec}
	h.Observe(j, o)
	want := cm.PartialSavings(j, cost.PartialOutcome{FracOnSSD: 0.5, ResidencyFrac: 0.5})
	w = h.snapshotInto(nil, 0)[0]
	if math.Abs(w.Savings-want) > 1e-12*math.Abs(want) {
		t.Errorf("partial outcome realized savings = %g, want %g", w.Savings, want)
	}

	// A non-finite on-SSD fraction (a hostile or buggy outcome post)
	// sanitizes to zero realized value via the cost model's clamp — it
	// adds mass but cannot poison the value signal.
	bad := placed()
	bad.FracOnSSD = math.NaN()
	before := w.Savings
	h.Observe(j, bad)
	if got := h.snapshotInto(nil, 0)[0].Savings; got != before {
		t.Errorf("NaN FracOnSSD changed savings: %g -> %g, want unchanged", before, got)
	}
}

func TestSolvePlanDefersZeroRealizedValue(t *testing.T) {
	// Zero realized savings means the workload was never actually
	// placed: no measurement, so the plan must not cover it — neither
	// demote it (sticky veto) nor admit it (phantom value).
	c := &counters{}
	plan := solve([]WorkloadHeat{
		wh("never-placed/s", 10, 4, 0),
		wh("earning/s", 10, 4, 5),
	}, 100<<30, heatCfg(), c)
	if _, ok := plan["never-placed/s"]; ok {
		t.Errorf("plan covers never-placed/s with %g; want absent (defer to write-time policy)", plan["never-placed/s"])
	}
	if got := plan["earning/s"]; got != 1 {
		t.Errorf("plan[earning/s] = %g, want 1", got)
	}
}

// solve runs one solve into a fresh plan.
func solve(ws []WorkloadHeat, quotaBytes float64, cfg Config, c *counters) map[string]float64 {
	plan := map[string]float64{}
	solvePlan(plan, nil, ws, quotaBytes, cfg, c)
	return plan
}

// heatCfg gives tau = HalfLifeSec/ln2 = 1000, so a workload's demand in
// the plan is ByteSec/1000 — easy to reason about in the tests below.
func heatCfg() Config {
	return Config{HalfLifeSec: 1000 * math.Ln2}
}

// ws builds a WorkloadHeat whose demand under heatCfg is exactly d.
func wh(key string, jobs, demand, savings float64) WorkloadHeat {
	return WorkloadHeat{Key: key, Jobs: jobs, ByteSec: demand * 1000, Savings: savings}
}

func TestSolvePlanDemotesNegativeValue(t *testing.T) {
	c := &counters{}
	plan := solve([]WorkloadHeat{
		wh("bad/s", 10, 5, -3),
		wh("good/s", 10, 5, 3),
	}, 1e18, heatCfg(), c)
	if got := plan["bad/s"]; got != 0 {
		t.Errorf("negative-savings workload residency = %g, want 0", got)
	}
	if got := plan["good/s"]; got != 1 {
		t.Errorf("positive-savings workload residency = %g, want 1", got)
	}
}

func TestSolvePlanBelowHeatFloorAbsent(t *testing.T) {
	c := &counters{}
	plan := solve([]WorkloadHeat{
		wh("cold/s", 1, 5, 3), // below the minJobs floor of 3
		wh("warm/s", 10, 5, 3),
	}, 1e18, heatCfg(), c)
	if _, ok := plan["cold/s"]; ok {
		t.Errorf("below-floor workload is in the plan; want absent (defer to write-time policy)")
	}
	if got := plan["warm/s"]; got != 1 {
		t.Errorf("warm workload residency = %g, want 1", got)
	}
}

func TestSolvePlanZeroDemandFullResidency(t *testing.T) {
	c := &counters{}
	plan := solve([]WorkloadHeat{wh("free/s", 10, 0, 3)}, 1, heatCfg(), c)
	if got := plan["free/s"]; got != 1 {
		t.Errorf("zero-demand workload residency = %g, want 1", got)
	}
}

// contendedCase is the fixture for TestSolvePlanContendedLP:
// three positive-value workloads against a quota of 12 bytes. Density
// order is a (10/byte), b (4/byte), c (0.5/byte); the fill takes a
// whole (5), b fractionally (7/10) and prices c out, which the plan
// floors at minResidency, 0.1 (positive value never hard-demotes).
func contendedCase() ([]WorkloadHeat, float64, map[string]float64) {
	heats := []WorkloadHeat{
		wh("a/s", 10, 5, 50),
		wh("b/s", 10, 10, 40),
		wh("c/s", 10, 4, 2),
	}
	want := map[string]float64{"a/s": 1, "b/s": 0.7, "c/s": 0.1}
	return heats, 12, want
}

func checkPlan(t *testing.T, got, want map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("plan has %d entries, want %d: %v", len(got), len(want), got)
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("plan missing %q", k)
			continue
		}
		if math.Abs(g-w) > 1e-9 {
			t.Errorf("plan[%q] = %g, want %g", k, g, w)
		}
	}
}

func TestSolvePlanContendedLP(t *testing.T) {
	heats, quota, want := contendedCase()
	c := &counters{}
	plan := solve(heats, quota, heatCfg(), c)
	checkPlan(t, plan, want)
	s := c.stats()
	if s.Solves != 1 || s.Workloads != 3 || s.Planned != 3 {
		t.Errorf("solves/workloads/planned = %d/%d/%d, want 1/3/3", s.Solves, s.Workloads, s.Planned)
	}
}

// TestSolvePlanGreedyMatchesLP: on seeded random instances the plan's
// knapsack objective equals the optimum of the same relaxation (one
// capacity row plus a [0,1] box per workload), read off its dual. The
// residency floor is undone first by capping the plan to the quota in
// density order, which leaves the whole and marginal workloads as
// planned and drops the floored ones back to 0.
func TestSolvePlanGreedyMatchesLP(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 26))
	for inst := 0; inst < 240; inst++ {
		n := 1 + rng.IntN(24)
		var heats []WorkloadHeat
		var total float64
		for i := 0; i < n; i++ {
			demand := float64(1 + rng.IntN(40))
			value := float64(1 + rng.IntN(100))
			if inst%4 == 1 && i%3 == 0 {
				value = 2 * demand // a density tie
			}
			heats = append(heats, wh("w"+itoa(i)+"/s", 10, demand, value))
			total += demand
		}
		// Zero-value padding: absent from the plan, value 0 in the LP.
		for i := 0; i < inst%3; i++ {
			heats = append(heats, wh("pad"+itoa(i)+"/s", 10, float64(1+rng.IntN(9)), 0))
		}
		var quota float64
		switch inst % 5 {
		case 0: // exact fit
			quota = total
		case 1: // one item overflows
			quota = total - heats[rng.IntN(n)].ByteSec/1000
		default:
			quota = float64(rng.IntN(int(total) + 1))
		}

		plan := solve(heats, quota, heatCfg(), &counters{})
		items := append([]WorkloadHeat(nil), heats...)
		sort.Slice(items, func(a, b int) bool {
			da, db := items[a].Savings/items[a].ByteSec, items[b].Savings/items[b].ByteSec
			if da != db {
				return da > db
			}
			return items[a].Key < items[b].Key
		})
		var greedy float64
		rem := quota
		for _, w := range items {
			demand := w.ByteSec / 1000
			x := math.Min(plan[w.Key], math.Max(rem, 0)/demand)
			rem -= x * demand
			greedy += w.Savings * x
		}

		// The LP's dual, min over λ ≥ 0 of λ·quota + Σ max(0, savings −
		// λ·demand), is convex and piecewise linear in λ, so its minimum
		// (the LP optimum) sits at 0 or at one item's density.
		lambdas := []float64{0}
		for _, w := range heats {
			lambdas = append(lambdas, w.Savings/(w.ByteSec/1000))
		}
		opt := math.Inf(1)
		for _, lambda := range lambdas {
			dual := lambda * quota
			for _, w := range heats {
				dual += math.Max(0, w.Savings-lambda*w.ByteSec/1000)
			}
			opt = math.Min(opt, dual)
		}
		if math.Abs(greedy-opt) > 1e-9*math.Max(1, opt) {
			t.Errorf("instance %d (%d workloads, quota %g of %g): greedy objective %.12g, LP %.12g",
				inst, len(heats), quota, total, greedy, opt)
		}
	}
}

// admitAll is the inner write-time policy for the end-to-end tests: it
// wants SSD for everything, so any selectivity in the results comes
// from the rebalancer.
type admitAll struct{}

func (admitAll) Name() string                            { return "admitall" }
func (admitAll) Place(*trace.Job, sim.PlaceContext) bool { return true }

// driftTrace interleaves a hot, high-value template with a parasitic
// cold one over two simulated days.
func driftTrace() *trace.Trace {
	tr := &trace.Trace{Cluster: "test"}
	const day = 86400.0
	for at, i := 0.0, 0; at < 2*day; at, i = at+120, i+1 {
		tr.Jobs = append(tr.Jobs, hotJob("h"+itoa(i), at))
	}
	for at, i := 0.0, 0; at < 2*day; at, i = at+600, i+1 {
		tr.Jobs = append(tr.Jobs, coldJob("c"+itoa(i), at))
	}
	tr.Sort()
	return tr
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

func TestPolicyRebalanceBeatsWriteTimeOnly(t *testing.T) {
	cm := cost.Default()
	tr := driftTrace()
	cfg := sim.Config{SSDQuota: 48 << 30}

	plain, err := sim.Run(tr, admitAll{}, cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reb := New(admitAll{}, cm, Config{})
	rebRes, err := sim.Run(tr, reb, cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rebRes.TCOSaved <= plain.TCOSaved {
		t.Fatalf("rebalanced TCO saved %g <= write-time-only %g; rebalancer must strictly win on this trace",
			rebRes.TCOSaved, plain.TCOSaved)
	}
	s := reb.Stats()
	if s.Solves == 0 {
		t.Errorf("no re-solves happened over two simulated days")
	}
	if s.Demotions == 0 {
		t.Errorf("no demotions: the parasitic template was never moved off SSD")
	}
	if s.Observations == 0 {
		t.Errorf("heat tracker saw no observations")
	}
	if got := reb.plan["cold/s"]; got != 0 {
		t.Errorf("final plan residency for cold/s = %g, want 0", got)
	}
	if reb.Name() != "admitall+Rebalance" {
		t.Errorf("Name = %q", reb.Name())
	}
}

func TestPolicyDeterministicReplay(t *testing.T) {
	cm := cost.Default()
	tr := driftTrace()
	cfg := sim.Config{SSDQuota: 48 << 30}

	run := func() (*sim.Result, map[string]float64, Stats, error) {
		p := New(admitAll{}, cm, Config{})
		res, err := sim.Run(tr, p, cm, cfg)
		return res, p.plan, p.Stats(), err
	}
	r1, plan1, s1, err := run()
	if err != nil {
		t.Fatal(err)
	}
	r2, plan2, s2, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.TCOSaved != r2.TCOSaved || r1.TCIOSaved != r2.TCIOSaved || r1.SSDPeakUsed != r2.SSDPeakUsed {
		t.Errorf("replay diverged: TCO %g vs %g, TCIO %g vs %g, peak %g vs %g",
			r1.TCOSaved, r2.TCOSaved, r1.TCIOSaved, r2.TCIOSaved, r1.SSDPeakUsed, r2.SSDPeakUsed)
	}
	if s1 != s2 {
		t.Errorf("counter snapshots diverged: %+v vs %+v", s1, s2)
	}
	if len(plan1) != len(plan2) {
		t.Fatalf("plan sizes diverged: %d vs %d", len(plan1), len(plan2))
	}
	for k, v := range plan1 {
		if plan2[k] != v {
			t.Errorf("plan[%q] diverged: %g vs %g", k, v, plan2[k])
		}
	}
}

// tmplJob is a hot job of template tmpl/s with the given size and a
// 1000 s lifetime.
func tmplJob(tmpl, id string, at, size float64) *trace.Job {
	j := hotJob(id, at)
	j.Pipeline, j.Step = tmpl, "s"
	j.SizeBytes = size
	j.LifetimeSec = 1000
	return j
}

// fractionalPolicy wraps inner with a rebalancer whose first solve
// leaves small/s fully resident and big/s fractional.
func fractionalPolicy(inner sim.Policy) *Policy {
	// tau = 1000; solve every 100 virtual seconds.
	p := New(inner, cost.Default(), Config{HalfLifeSec: 1000 * math.Ln2, SolveIntervalSec: 100})
	// Two positive-value templates; big/s has 4x the footprint of
	// small/s at the same per-job value, so it prices lower and gets
	// the fractional remainder under a contended quota. Four
	// observations each keep the decayed mass (~3.5) above minJobs.
	for i := 0; i < 4; i++ {
		at := float64(i * 10)
		p.Observe(tmplJob("small", "s"+itoa(i), at, 2<<30), placed())
		p.Observe(tmplJob("big", "b"+itoa(i), at, 8<<30), placed())
	}
	// Quota between small's total demand (~7 GiB) and small+big
	// (~35 GiB): small stays fully resident, big goes fractional.
	quota := float64(12 << 30)
	p.Place(tmplJob("small", "arm", 0, 2<<30), sim.PlaceContext{Now: 0, SSDQuota: quota})      // arms the timer
	p.Place(tmplJob("small", "tick", 150, 2<<30), sim.PlaceContext{Now: 150, SSDQuota: quota}) // first solve
	return p
}

func TestPolicyFractionalPlanEvicts(t *testing.T) {
	p := fractionalPolicy(admitAll{})
	plan := p.plan
	if got := plan["small/s"]; got != 1 {
		t.Errorf("plan[small/s] = %g, want 1", got)
	}
	r := plan["big/s"]
	if r <= 0 || r >= 1 {
		t.Fatalf("plan[big/s] = %g, want fractional in (0,1)", r)
	}
	j := tmplJob("big", "evict-me", 200, 8<<30)
	d := p.EvictAfter(j)
	if want := r * j.LifetimeSec; math.Abs(d-want) > 1e-9 {
		t.Errorf("EvictAfter = %g, want %g (residency %g of lifetime %g)", d, want, r, j.LifetimeSec)
	}
	if got := p.Stats().Evictions; got == 0 {
		t.Errorf("evictions counter = %d, want > 0", got)
	}
	if p.heat.Len() != 2 {
		t.Errorf("tracker Len = %d, want 2", p.heat.Len())
	}
}

// earlyEvictor is an inner policy whose own eviction deadline is one
// virtual second, earlier than any plan residency in these tests.
type earlyEvictor struct{ admitAll }

func (earlyEvictor) EvictAfter(*trace.Job) float64 { return 1 }

// TestPolicyEvictAfterInnerDeadlineWins: when the inner evictor's
// deadline is earlier, it is the one returned and the plan issued no
// eviction, so the counter stays at zero.
func TestPolicyEvictAfterInnerDeadlineWins(t *testing.T) {
	p := fractionalPolicy(earlyEvictor{})
	if r := p.plan["big/s"]; r <= 0 || r >= 1 {
		t.Fatalf("plan[big/s] = %g, want fractional in (0,1)", r)
	}
	if d := p.EvictAfter(tmplJob("big", "evict-me", 200, 8<<30)); d != 1 {
		t.Errorf("EvictAfter = %g, want the inner deadline 1", d)
	}
	if got := p.Stats().Evictions; got != 0 {
		t.Errorf("evictions counter = %d, want 0: the plan's deadline lost", got)
	}
}

// preparing is an inner policy that counts what Prepare hands it.
type preparing struct {
	admitAll
	prepared int
}

func (p *preparing) Prepare(jobs []*trace.Job) error {
	p.prepared += len(jobs)
	return nil
}

// TestPolicyForwardsPrepare: the wrapper passes the replay's jobs on to
// an inner policy that prepares, and is a no-op around one that does not.
func TestPolicyForwardsPrepare(t *testing.T) {
	tr, cm := driftTrace(), cost.Default()
	inner := &preparing{}
	if _, err := sim.Run(tr, New(inner, cm, Config{}), cm, sim.Config{SSDQuota: 1e12}); err != nil {
		t.Fatal(err)
	}
	if inner.prepared != len(tr.Jobs) {
		t.Errorf("inner policy was prepared with %d jobs, trace has %d", inner.prepared, len(tr.Jobs))
	}
	if err := New(admitAll{}, cm, Config{}).Prepare(tr.Jobs); err != nil {
		t.Errorf("Prepare around a policy that does not prepare: %v", err)
	}
}

func BenchmarkSolvePlan(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256} {
		b.Run("workloads="+itoa(n), func(b *testing.B) {
			heats := make([]WorkloadHeat, 0, n)
			for i := 0; i < n; i++ {
				// Spread densities so the quota binds mid-list and the fill runs.
				heats = append(heats, wh("w"+itoa(i)+"/s", 10, float64(1+i%17), float64(1+(i*7)%101)))
			}
			var total float64
			for _, w := range heats {
				total += w.ByteSec / 1000
			}
			quota := total / 3
			cfg := heatCfg()
			c := &counters{}
			plan := map[string]float64{}
			var items []item
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				items = solvePlan(plan, items, heats, quota, cfg, c)
			}
		})
	}
}
