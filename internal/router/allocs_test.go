//go:build !race

package router

import (
	"context"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestRouterSteadyStateAllocs is the routed paths' allocation budget,
// counted process-wide (router, node clients and both daemons share the
// process) on a warm 2-node plane, with the prober pushed out of the
// measurement. Both operations are frames on the node clients' pooled
// stream sessions. One routed outcome measures 0 — its owner decodes the
// frame in place and, with no learner or observer attached, copies
// nothing — against 101 as a JSON post and 2 while the serving core kept
// the job in a shard queue; it gets 1 of headroom. One routed 64-job
// place measures 2: the decisions it returns and the closure of the one
// dispatch goroutine it spawns. The other node's batch goes out on the
// caller's goroutine, and both nodes' decisions land in buffers kept in
// the pooled routing scratch. It measured 5 while every node batch had a
// goroutine of its own and each node client handed back a fresh slice
// (2 × 2 + 1), and 241 while each node dispatch was a net/http request
// (about 200 of them) and grouping and assignment allocated per call
// (38); the budget leaves 2 of headroom. (sync.Pool drops items at
// random under the race detector, hence the build tag.)
func TestRouterSteadyStateAllocs(t *testing.T) {
	fx := testFixture(t)
	p, _ := newTestPlane(t, 2)
	cfg := DefaultConfig(p.URLs())
	cfg.ProbeInterval = time.Minute
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	ctx := context.Background()
	jobs := fx.jobs[:64]
	o := sim.Outcome{WantedSSD: true, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}

	for _, tc := range []struct {
		name   string
		call   func() error
		budget float64
	}{
		{"observe", func() error { return r.Observe(ctx, jobs[0], 1, o) }, 1},
		{"place", func() error { _, err := r.Place(ctx, jobs); return err }, 4},
	} {
		call := func() {
			if err := tc.call(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 16; i++ {
			call()
		}
		got := testing.AllocsPerRun(100, call)
		t.Logf("%s: %.2f allocations", tc.name, got)
		if got > tc.budget {
			t.Errorf("%s: %.2f allocations, budget %.0f", tc.name, got, tc.budget)
		}
	}
}
