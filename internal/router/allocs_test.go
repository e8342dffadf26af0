//go:build !race

package router

import (
	"context"
	"net/http"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestRouterSteadyStateAllocs is the routed paths' allocation budget,
// counted process-wide (router, node clients and daemons share the
// process) on warm 2- and 3-node planes, with the prober pushed out of
// the measurement. Both operations are frames on the node clients'
// pooled stream sessions. One routed outcome measures 0 — its owner
// decodes the frame in place and, with no learner or observer attached,
// copies nothing — against 95 as a JSON post and 2 while the serving
// core kept the job in a shard queue; it gets 1 of headroom. One routed
// 64-job place measures 1 over either plane: the decisions it returns.
// The last node batch goes out on the caller's goroutine, the others on
// goroutines started through senders bound once per pooled node batch,
// and every node's decisions land in buffers kept in the pooled routing
// scratch. Over two nodes it measured 241 while each node dispatch was
// a net/http request (about 200 of them) and grouping and assignment
// allocated per call (38), 5 while every node batch had a goroutine of
// its own and each node client handed back a fresh slice (2 × 2 + 1),
// and 2 while each spawned goroutine took a closure (3 over three
// nodes); the budget leaves 1 of headroom. (sync.Pool drops items at
// random under the race detector, hence the build tag.)
func TestRouterSteadyStateAllocs(t *testing.T) {
	fx := testFixture(t)
	newRouter := func(nodes int) *Router {
		p, _ := newTestPlane(t, nodes)
		cfg := DefaultConfig(p.URLs())
		cfg.ProbeInterval = time.Minute
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		return r
	}
	r2, r3 := newRouter(2), newRouter(3)
	ctx := context.Background()
	jobs := fx.jobs[:64]
	o := sim.Outcome{WantedSSD: true, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}

	for _, tc := range []struct {
		name   string
		call   func() error
		budget float64
	}{
		{"observe", func() error { return r2.Observe(ctx, jobs[0], 1, o) }, 1},
		{"place", func() error { _, err := r2.Place(ctx, jobs); return err }, 2},
		{"place over 3 nodes", func() error { _, err := r3.Place(ctx, jobs); return err }, 2},
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

// TestProbeRoundAllocs is the health round's budget: on a warm 2-node
// plane, one routed place that reaches both nodes and then one probe
// round allocate what the place alone allocates (1, budget 2 as in
// TestRouterSteadyStateAllocs). Both nodes answered since the last
// round, so the round sends no /healthz GET; while every round sent
// one per node, the pair measured about 2 × 78 more, the router's
// net/http client and the daemon's server together.
func TestProbeRoundAllocs(t *testing.T) {
	fx := testFixture(t)
	p, _ := newTestPlane(t, 2)
	cfg := DefaultConfig(p.URLs())
	cfg.ProbeInterval = time.Minute // the test runs the rounds itself
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	hc := &http.Client{Transport: tr, Timeout: time.Second}
	var nodes []*node
	for _, n := range r.nodes {
		nodes = append(nodes, n)
	}
	jobs := fx.jobs[:64]
	call := func() {
		if _, err := r.Place(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		r.probeAll(hc, nodes)
	}
	before := [2]int64{nodes[0].answers.Load(), nodes[1].answers.Load()}
	call()
	for i, n := range nodes {
		if n.answers.Load() == before[i] {
			t.Fatalf("the place did not reach node %d", i)
		}
	}
	for i := 0; i < 16; i++ {
		call()
	}
	probes := r.Stats().Probes
	got := testing.AllocsPerRun(100, call)
	t.Logf("place + probe round: %.2f allocations", got)
	if got > 2 {
		t.Errorf("place + probe round: %.2f allocations, budget 2", got)
	}
	if n := r.Stats().Probes - probes; n != 0 {
		t.Errorf("%d GETs sent to nodes that answered every round, want 0", n)
	}
}
