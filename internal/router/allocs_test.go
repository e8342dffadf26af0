//go:build !race

package router

import (
	"context"
	"testing"

	"repro/internal/sim"
)

// TestRouterSteadyStateAllocs is the routed paths' allocation budget,
// counted process-wide (router, node clients, net/http and both daemons
// share the process) on a warm 2-node plane. One routed outcome measures
// 2, the job its owner decodes and the string that job's fields share,
// against 107 as a JSON post; it gets 1 of headroom. One routed 64-job
// place measures 242, about 200 of it the two net/http node requests; it
// measured 291 here (288 on the benchmark's fixture) while
// groupByTemplate grew one indices slice per template group, and the
// budget stays at that 288 so the router's own share can only shrink.
// (sync.Pool drops items at random under the race detector, hence the
// build tag.)
func TestRouterSteadyStateAllocs(t *testing.T) {
	fx := testFixture(t)
	p, _ := newTestPlane(t, 2)
	r := newTestRouter(t, p)
	ctx := context.Background()
	jobs := fx.jobs[:64]
	o := sim.Outcome{WantedSSD: true, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}

	for _, tc := range []struct {
		name   string
		call   func() error
		budget float64
	}{
		{"observe", func() error { return r.Observe(ctx, jobs[0], 1, o) }, 3},
		{"place", func() error { _, err := r.Place(ctx, jobs); return err }, 288},
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
