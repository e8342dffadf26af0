package fleet

import (
	"strings"
	"testing"

	"repro/internal/online"
	"repro/internal/registry"
)

// testConfig returns a fleet sized for unit tests: three clusters,
// two days each, small models.
func testConfig(t *testing.T) Config {
	t.Helper()
	cfg := DefaultConfig(3, 7)
	cfg.Fleet.DurationSec = 2 * 24 * 3600
	cfg.Fleet.Users = 6
	cfg.Train.NumCategories = 6
	cfg.Train.GBDT.NumRounds = 6
	return cfg
}

// testOnlineConfig returns loop parameters that actually fire on a
// two-day test half.
func testOnlineConfig() *online.Config {
	ocfg := online.DefaultConfig(6)
	ocfg.Window = online.WindowConfig{MaxCount: 3000, HorizonSec: 1.5 * 24 * 3600}
	ocfg.RetrainEverySec = 8 * 3600
	ocfg.MinRetrainJobs = 150
	ocfg.Drift.MinSamples = 150
	return &ocfg
}

func TestFleetRunEndToEnd(t *testing.T) {
	cfg := testConfig(t)
	cfg.Online = testOnlineConfig()
	reg := registry.New()
	rep, err := Run(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Clusters) != 3 {
		t.Fatalf("got %d clusters, want 3", len(rep.Clusters))
	}
	var hdd, perC float64
	var retrains, swaps int64
	for i, c := range rep.Clusters {
		if c.TestJobs == 0 {
			t.Fatalf("cluster %d has no test jobs", i)
		}
		if c.QuotaFrac <= 0 {
			t.Fatalf("cluster %s has quota fraction %g", c.Cluster, c.QuotaFrac)
		}
		if c.TotalTCOHDD <= 0 {
			t.Fatalf("cluster %s has all-HDD TCO %g", c.Cluster, c.TotalTCOHDD)
		}
		for name, m := range map[string]Method{
			"per-cluster": c.PerCluster, "global": c.Global, "transfer": c.Transfer,
		} {
			if m.TCOPct < -100 || m.TCOPct > 100 {
				t.Errorf("cluster %s %s TCO%% = %g out of range", c.Cluster, name, m.TCOPct)
			}
		}
		if c.Online == nil {
			t.Fatalf("cluster %s missing online result", c.Cluster)
		}
		if c.Online.FinalVersion < 1 {
			t.Errorf("cluster %s final version %d", c.Cluster, c.Online.FinalVersion)
		}
		if c.Online.Swaps != int64(c.Online.FinalVersion-1) {
			t.Errorf("cluster %s: %d swaps but final version %d",
				c.Cluster, c.Online.Swaps, c.Online.FinalVersion)
		}
		hdd += c.TotalTCOHDD
		perC += c.PerCluster.TCOSaved
		retrains += c.Online.Retrains
		swaps += c.Online.Swaps
	}
	// The aggregate is the fleet-wide ratio, not a mean of percentages.
	if want := 100 * perC / hdd; rep.PerClusterAggTCOPct != want {
		t.Errorf("per-cluster aggregate %g, want %g", rep.PerClusterAggTCOPct, want)
	}

	// The shared registry holds exactly one workload per cluster, in
	// the cluster/<id> namespace.
	wls := reg.Workloads()
	if len(wls) != 3 {
		t.Fatalf("registry has workloads %v, want 3", wls)
	}
	for _, w := range wls {
		if !strings.HasPrefix(w, "cluster/") {
			t.Errorf("workload %q outside the cluster/ namespace", w)
		}
	}

	// The loop fired somewhere in the fleet: summed over clusters, it
	// retrained and hot-swapped.
	if retrains == 0 || swaps == 0 {
		t.Errorf("online loop never fired: %d retrains, %d swaps", retrains, swaps)
	}

	var sb strings.Builder
	rep.Render(&sb)
	out := sb.String()
	for _, needle := range []string{"per-cluster TCO%", "online TCO%", "fleet aggregate", "C0", "C2"} {
		if !strings.Contains(out, needle) {
			t.Errorf("rendered report missing %q:\n%s", needle, out)
		}
	}
}

func TestFleetRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{}, registry.New()); err == nil {
		t.Error("empty config did not error")
	}
	cfg := testConfig(t)
	if _, err := Run(cfg, nil); err == nil {
		t.Error("nil registry did not error")
	}
}
