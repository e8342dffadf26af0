//go:build !race

package online

import (
	"testing"

	"repro/internal/serve"
	"repro/internal/sim"
)

// TestLoopSteadyStateAllocs: once the server's call pool is warm, the
// replay adapter's local Place+Observe allocates nothing per job, since
// the one-job slice and the decision slices are reused. (sync.Pool
// drops items at random under the race detector, hence the build tag.)
func TestLoopSteadyStateAllocs(t *testing.T) {
	fx := testFixture(t)
	srv, err := serve.New(newLoopRegistry(t, fx), "w", fx.cm, loopServeConfig())
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
