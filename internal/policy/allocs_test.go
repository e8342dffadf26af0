//go:build !race

package policy_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestSimRunSteadyStateAllocs: a replay under AdaptiveRanking allocates
// per run, never per job. Building the policy and replaying 1,024 and
// 4,096 fixture jobs cost the same number of allocations — the policy
// and its controller, one category slice, the classification workers,
// the Result — where a replay used to box two heap items and make one
// logits slice per job. (Not under -race: sync.Pool, which holds the
// classification slabs and the release heap, drops items at random
// there.)
func TestSimRunSteadyStateAllocs(t *testing.T) {
	f, model := poolFixture(t)
	if len(f.Pool) < 4096 {
		t.Skip("the -short fixture holds fewer than 4,096 jobs")
	}
	measure := func(n int) float64 {
		tr := &trace.Trace{Cluster: "C0", Jobs: f.Pool[:n]}
		cfg := sim.Config{SSDQuota: 0.05 * tr.PeakSSDUsage()}
		replay := func() {
			p, err := policy.NewAdaptiveRanking(model, f.Cost, core.DefaultAdaptiveConfig(model.NumCategories()))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Run(tr, p, f.Cost, cfg); err != nil {
				t.Fatal(err)
			}
		}
		replay() // fill the pools
		return testing.AllocsPerRun(10, replay)
	}
	long := measure(4096)
	short := measure(1024)
	t.Logf("%.0f allocations per 4,096-job replay, %.0f per 1,024-job replay", long, short)
	if long != short {
		t.Errorf("a replay's allocations grow with its length: %.0f at 4,096 jobs, %.0f at 1,024", long, short)
	}
	if long > 64 {
		t.Errorf("%.0f allocations per replay, budget 64", long)
	}
}

// TestAdaptiveHashPlaceAllocs: a warm AdaptiveHash Place hashes the
// template in place — no key string, no hasher — and allocates nothing.
func TestAdaptiveHashPlaceAllocs(t *testing.T) {
	cfg := trace.DefaultGeneratorConfig("C0", 7)
	cfg.DurationSec = 6 * 3600
	var jobs []*trace.Job
	for _, j := range trace.NewGenerator(cfg).Generate().Jobs {
		// Production pipeline names run past the 32 bytes a short string
		// concatenation or []byte conversion can be built in on the stack.
		c := *j
		c.Pipeline = "com.example.dataflow.production." + j.Pipeline
		jobs = append(jobs, &c)
	}
	p, err := policy.NewAdaptiveHash(cost.Default(), core.DefaultAdaptiveConfig(15))
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.PlaceContext{Now: 1, SSDQuota: 1e12, SSDFree: 1e12}
	place := func() {
		for _, j := range jobs {
			p.Place(j, ctx)
		}
	}
	place() // start the controller
	if allocs := testing.AllocsPerRun(10, place); allocs != 0 {
		t.Errorf("%.1f allocations per %d-job pass, want 0", allocs, len(jobs))
	}
}
