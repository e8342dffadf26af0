//go:build !race

package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/rpc"
)

// TestFrontPlaceSteadyStateAllocs is the front's allocation budget,
// counted process-wide (a JSON client, the front, its router and both
// daemons of a 2-node plane share the process) for one 64-job JSON place
// through the front once every pool is warm, with the prober pushed out
// of the measurement and sampling off. It measures 92, what the two hops
// cost: the client's JSON place (91 against a daemon,
// TestPlaceSteadyStateAllocs in internal/rpc) plus the routed place
// behind it (1, TestRouterSteadyStateAllocs in internal/router). The
// front reads and writes the JSON with the daemon's shells (ReadPlaceJSON,
// WritePlaceJSON) on pooled scratch and adds nothing of its own. It
// measured 108 while the JSON exchange cost 103 and the routed place 5,
// and 93 while the routed place cost 2; the budget leaves 3 of headroom. (sync.Pool drops items at random
// under the race detector, hence the build tag.)
func TestFrontPlaceSteadyStateAllocs(t *testing.T) {
	jobs, plane := startPlane(t, "front-allocs", 13, rpc.DefaultConfig(4), 2)
	rcfg := router.DefaultConfig(plane.Members())
	rcfg.ProbeInterval = time.Minute
	rt, err := router.New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := httptest.NewServer((&front{
		router: rt,
		tracer: obs.NewTracer("placementfront", 0, 0),
	}).handler())
	defer srv.Close()
	c, err := rpc.NewClient(rpc.DefaultClientConfig(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	call := func() {
		if _, err := c.Place(ctx, jobs[:64]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		call()
	}
	const budget = 95
	got := testing.AllocsPerRun(200, call)
	t.Logf("%.2f allocations per 64-job place through the front", got)
	if got > budget {
		t.Errorf("%.2f allocations per 64-job place through the front, budget %d", got, budget)
	}
	if rs := rt.Stats(); rs.Batches < 200 || rs.Failures != 0 {
		t.Errorf("router stats %+v, want every place routed", rs)
	}
}
