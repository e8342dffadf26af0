package fleet

import (
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/registry"
)

// TestFleetShutdownNoLeaks: a fleet run with online loops spins up one
// server (shard workers) and one learner per cluster against a shared
// registry; when Run returns, every goroutine must be gone and every
// registry subscription released. Hand-rolled goroutine accounting
// stands in for goleak (no external deps in this repo).
func TestFleetShutdownNoLeaks(t *testing.T) {
	cfg := testConfig(t)
	cfg.Fleet.NumClusters = 2
	cfg.Fleet.DurationSec = 24 * 3600
	cfg.Online = testOnlineConfig()
	cfg.Online.MinRetrainJobs = 80
	cfg.Online.RetrainEverySec = 6 * 3600

	before := runtime.NumGoroutine()
	for i := 0; i < 2; i++ {
		reg := registry.New()
		if _, err := Run(cfg, reg); err != nil {
			t.Fatal(err)
		}
		if subs := reg.Subscribers(); subs != 0 {
			t.Fatalf("run %d: %d registry subscriptions still active after shutdown", i, subs)
		}
	}

	// Workers park asynchronously after their channels close; give the
	// scheduler a grace window before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines: %d before fleet runs, %d after shutdown", before, after)
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}
