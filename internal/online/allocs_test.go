//go:build !race

package online

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/sim"
)

// TestLoopSteadyStateAllocs: once the server's call pool is warm, the
// replay adapter's local Place+Observe allocates nothing per job, since
// the one-job slice and the decision slices are reused. (sync.Pool
// drops items at random under the race detector, hence the build tag.)
func TestLoopSteadyStateAllocs(t *testing.T) {
	fx := testFixture(t)
	srv, err := serve.New(newLoopRegistry(t, fx), "w", fx.cm, serve.DefaultConfig(testCategories))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l := &loop{p: Local(srv)}
	j := fx.sc.Replay.Jobs[0]
	o := sim.Outcome{WantedSSD: true, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}
	call := func() {
		l.Place(j, sim.PlaceContext{})
		l.Observe(j, o)
		if l.err != nil {
			t.Fatal(l.err)
		}
	}
	for i := 0; i < 8; i++ {
		call()
	}
	if n := testing.AllocsPerRun(200, call); n != 0 {
		t.Errorf("warm Place+Observe through the replay adapter: %.1f allocations per job, want 0", n)
	}
}

// TestLearnerObserveAllocs: with the drift trigger armed, a warm
// Observe that fires no retrain allocates nothing — the window is a
// preallocated ring and the drift check reuses its distribution buffer.
func TestLearnerObserveAllocs(t *testing.T) {
	cfg := DefaultConfig(testCategories)
	cfg.Window = WindowConfig{MaxCount: 64}
	cfg.RetrainEverySec = 0 // drift only
	cfg.DriftTV = 0.15
	cfg.MinRetrainJobs = 2
	l, err := New(registry.New(), "w", cost.Default(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	j := job(1)
	observe := func() { l.Observe(j, 1) }
	for i := 0; i < 128; i++ { // fill the ring and arm the reference
		observe()
	}
	if l.det.ref == nil {
		t.Fatal("drift reference not armed after a full window")
	}
	if n := testing.AllocsPerRun(200, observe); n != 0 {
		t.Errorf("warm Observe with drift armed: %.1f allocations per job, want 0", n)
	}
	if s := l.Stats(); s.DriftTriggers+s.CadenceTriggers != 0 {
		t.Errorf("a steady category stream fired a retrain: %+v", s)
	}
}
