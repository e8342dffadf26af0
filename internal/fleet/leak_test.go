package fleet

import (
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/registry"
)

// TestFleetShutdownNoLeaks: a fleet run with online loops spins up one
// server (shard workers) and one learner per cluster against a shared
// registry; when Run returns, every goroutine must be gone and every
// registry subscription released.
func TestFleetShutdownNoLeaks(t *testing.T) {
	cfg := testConfig(t)
	cfg.Fleet.NumClusters = 2
	cfg.Fleet.DurationSec = 24 * 3600
	cfg.Online = testOnlineConfig()
	cfg.Online.MinRetrainJobs = 80
	cfg.Online.RetrainEverySec = 6 * 3600

	checkGoroutines := leakcheck.Goroutines(t, "fleet runs")
	for i := 0; i < 2; i++ {
		reg := registry.New()
		if _, err := Run(cfg, reg); err != nil {
			t.Fatal(err)
		}
		if subs := reg.Subscribers(); subs != 0 {
			t.Fatalf("run %d: %d registry subscriptions still active after shutdown", i, subs)
		}
	}
	checkGoroutines()
}
