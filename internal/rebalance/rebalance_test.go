package rebalance

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/lp"
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

	ws := h.Snapshot(100) // exactly one half-life later
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
	w := h.Snapshot(100)[0]
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
	w := h.Snapshot(0)[0]
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
	w = h.Snapshot(0)[0]
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
	if got := h.Snapshot(0)[0].Savings; got != before {
		t.Errorf("NaN FracOnSSD changed savings: %g -> %g, want unchanged", before, got)
	}
}

func TestSolvePlanDefersZeroRealizedValue(t *testing.T) {
	// Zero realized savings means the workload was never actually
	// placed: no measurement, so the plan must not cover it — neither
	// demote it (sticky veto) nor admit it (phantom value).
	c := &counters{}
	plan := solvePlan([]WorkloadHeat{
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
	plan := solvePlan([]WorkloadHeat{
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
	plan := solvePlan([]WorkloadHeat{
		wh("cold/s", 1, 5, 3), // below the default MinJobs floor of 3
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
	plan := solvePlan([]WorkloadHeat{wh("free/s", 10, 0, 3)}, 1, heatCfg(), c)
	if got := plan["free/s"]; got != 1 {
		t.Errorf("zero-demand workload residency = %g, want 1", got)
	}
}

// contendedCase is the shared fixture for the LP and fallback tests:
// three positive-value workloads against a quota of 12 bytes. Density
// order is a (10/byte), b (4/byte), c (0.5/byte); greedy — which is
// optimal for this relaxation — fills a whole (5), b fractionally
// (7/10) and prices c out, which the plan floors at the default
// MinResidency of 0.1 (positive value never hard-demotes).
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
	plan := solvePlan(heats, quota, heatCfg(), c)
	checkPlan(t, plan, want)
	s := c.stats()
	if s.LPOptimal != 1 || s.LPFallbacks != 0 {
		t.Errorf("lp_optimal = %d, lp_fallbacks = %d; want 1, 0", s.LPOptimal, s.LPFallbacks)
	}
	if s.Solves != 1 || s.Workloads != 3 || s.Planned != 3 {
		t.Errorf("solves/workloads/planned = %d/%d/%d, want 1/3/3", s.Solves, s.Workloads, s.Planned)
	}
}

func TestSolvePlanFallbackMatchesLP(t *testing.T) {
	heats, quota, want := contendedCase()
	cases := []struct {
		name   string
		solver func(lp.Problem) (lp.Solution, error)
	}{
		{"iteration-limit", func(p lp.Problem) (lp.Solution, error) {
			return lp.Solution{Status: lp.IterationLimit}, nil
		}},
		{"unbounded", func(p lp.Problem) (lp.Solution, error) {
			return lp.Solution{Status: lp.Unbounded}, nil
		}},
		{"error", func(p lp.Problem) (lp.Solution, error) {
			return lp.Solution{}, errors.New("synthetic solver failure")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := heatCfg()
			cfg.Solver = tc.solver
			c := &counters{}
			plan := solvePlan(heats, quota, cfg, c)
			// The greedy fractional fill is optimal for this relaxation,
			// so the fallback must land on the same plan the LP found.
			checkPlan(t, plan, want)
			s := c.stats()
			if s.LPOptimal != 0 || s.LPFallbacks != 1 {
				t.Errorf("lp_optimal = %d, lp_fallbacks = %d; want 0, 1", s.LPOptimal, s.LPFallbacks)
			}
		})
	}
}

func TestSolvePlanMaxWorkloadsCap(t *testing.T) {
	cfg := heatCfg()
	cfg.MaxWorkloads = 1
	c := &counters{}
	plan := solvePlan([]WorkloadHeat{
		wh("dense/s", 10, 5, 50),
		wh("sparse/s", 10, 10, 1),
	}, 6, cfg, c)
	if got := plan["dense/s"]; got != 1 {
		t.Errorf("densest workload residency = %g, want 1", got)
	}
	if _, ok := plan["sparse/s"]; ok {
		t.Errorf("over-cap workload is in the plan; want absent")
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
	if got := reb.Plan()["cold/s"]; got != 0 {
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
		return res, p.Plan(), p.Stats(), err
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

func TestPolicyFractionalPlanEvicts(t *testing.T) {
	cm := cost.Default()
	// tau = 1000; solve every 100 virtual seconds; every template counts.
	cfg := Config{HalfLifeSec: 1000 * math.Ln2, SolveIntervalSec: 100, MinJobs: 1}
	p := New(admitAll{}, cm, cfg)

	// Two positive-value templates; big/s has 4x the footprint of
	// small/s at the same per-job value, so it prices lower and gets
	// the fractional remainder under a contended quota.
	mk := func(tmpl, id string, at, size float64) *trace.Job {
		j := hotJob(id, at)
		j.Pipeline, j.Step = tmpl, "s"
		j.SizeBytes = size
		j.LifetimeSec = 1000
		return j
	}
	for i := 0; i < 3; i++ {
		at := float64(i * 10)
		p.Observe(mk("small", "s"+itoa(i), at, 2<<30), placed())
		p.Observe(mk("big", "b"+itoa(i), at, 8<<30), placed())
	}
	// Quota between small's total demand (~6 GiB) and small+big
	// (~30 GiB): small stays fully resident, big goes fractional.
	quota := float64(12 << 30)
	p.Place(mk("small", "arm", 0, 2<<30), sim.PlaceContext{Now: 0, SSDQuota: quota})      // arms the timer
	p.Place(mk("small", "tick", 150, 2<<30), sim.PlaceContext{Now: 150, SSDQuota: quota}) // first solve

	plan := p.Plan()
	if got := plan["small/s"]; got != 1 {
		t.Errorf("plan[small/s] = %g, want 1", got)
	}
	r := plan["big/s"]
	if r <= 0 || r >= 1 {
		t.Fatalf("plan[big/s] = %g, want fractional in (0,1)", r)
	}
	j := mk("big", "evict-me", 200, 8<<30)
	d := p.EvictAfter(j)
	if want := r * j.LifetimeSec; math.Abs(d-want) > 1e-9 {
		t.Errorf("EvictAfter = %g, want %g (residency %g of lifetime %g)", d, want, r, j.LifetimeSec)
	}
	if got := p.Stats().Evictions; got == 0 {
		t.Errorf("evictions counter = %d, want > 0", got)
	}
	if p.Heat().Len() != 2 {
		t.Errorf("tracker Len = %d, want 2", p.Heat().Len())
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
				// Spread densities so the quota binds mid-list and the LP runs.
				heats = append(heats, wh("w"+itoa(i)+"/s", 10, float64(1+i%17), float64(1+(i*7)%101)))
			}
			var total float64
			for _, w := range heats {
				total += w.ByteSec / 1000
			}
			quota := total / 3
			cfg := heatCfg()
			c := &counters{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solvePlan(heats, quota, cfg, c)
			}
		})
	}
}
