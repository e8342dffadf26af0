package rebalance_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/rebalance"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestRebalanceFleetPin replays two heterogeneous fleet clusters under
// their own model wrapped in the rebalancer and compares the rebalancer's
// TCO savings, solves, demotions and evictions with values recorded when
// the residency plan still went through the simplex. The values are
// compared, never rewritten: a diff means the rebalancer moved.
func TestRebalanceFleetPin(t *testing.T) {
	specs, err := trace.FleetSpecs(trace.FleetConfig{NumClusters: 2, BaseSeed: 1, DurationSec: 24 * 3600, Users: 4})
	if err != nil {
		t.Fatal(err)
	}
	topts := core.DefaultTrainOptions()
	topts.NumCategories = 5
	topts.GBDT.NumRounds = 4
	topts.GBDT.Seed = 1
	want := []struct {
		tcoPct            string
		solves, demotions int64
	}{
		{"9.456", 11, 1},
		{"1.061", 11, 0},
	}
	var evictions int64
	for i, spec := range specs {
		env := experiments.NewEnv(spec.Gen)
		model, err := core.TrainCategoryModel(env.Train.Jobs, env.Cost, topts)
		if err != nil {
			t.Fatal(err)
		}
		ranking, err := policy.NewAdaptiveRanking(model, env.Cost, core.DefaultAdaptiveConfig(model.NumCategories()))
		if err != nil {
			t.Fatal(err)
		}
		reb := rebalance.New(ranking, env.Cost, rebalance.Config{})
		res, err := sim.Run(env.Test, reb, env.Cost, sim.Config{SSDQuota: env.PeakUsage * spec.QuotaFrac})
		if err != nil {
			t.Fatal(err)
		}
		s := reb.Stats()
		if got := fmt.Sprintf("%.3f", res.TCOSavingsPercent()); got != want[i].tcoPct || s.Solves != want[i].solves || s.Demotions != want[i].demotions {
			t.Errorf("%s: TCO %s%%, %d solves, %d demotions; want %s%%, %d, %d",
				env.Cluster, got, s.Solves, s.Demotions, want[i].tcoPct, want[i].solves, want[i].demotions)
		}
		evictions += s.Evictions
	}
	if evictions != 120 {
		t.Errorf("%d evictions across the fleet, want 120", evictions)
	}
}
