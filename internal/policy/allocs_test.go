//go:build !race

package policy_test

import (
	"testing"

	"repro/internal/core"
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
