//go:build !race

package rpc

import (
	"context"
	"testing"

	"repro/internal/online"
	"repro/internal/sim"
)

// TestPlaceSteadyStateAllocs is the network path's allocation budget,
// counted process-wide (client, net/http and daemon share the process)
// for one 64-job place against an in-process daemon once every pool is
// warm. The budgets are what the code measured (go1.24, three runs, no
// spread): 1 per stream frame, the returned []wire.Decision. One boxed
// interface or escaping closure per frame doubles that figure, which is
// the benchmark's stream-lite metric. place-binary is Client.Place on
// the binary codec, the same frame on a session from the client's idle
// list, and measures the same 1; it gets 1 of headroom, which an
// escaping session closure would spend. http-json is the same batch as a
// JSON document each way, written and read by the wire codec in pooled
// scratch: it measures 103, 100 of them net/http's, plus the returned
// decisions, the one string a decoded request's strings share and one
// more of the JSON exchange's own; it gets 3 of headroom for other
// toolchains. (sync.Pool drops items at random under the race detector,
// hence the build tag.)
func TestPlaceSteadyStateAllocs(t *testing.T) {
	fx := testFixture(t)
	d := startDaemon(t, fx.newRegistry(t), testConfig())
	c := newCodecClient(t, d, CodecBinary)
	cj := newCodecClient(t, d, CodecJSON)
	s, err := c.OpenStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	jobs := fx.jobs[:64]
	ctx := context.Background()

	for _, tc := range []struct {
		name   string
		place  func() error
		budget float64
	}{
		{"stream", func() error { _, err := s.Place(ctx, jobs); return err }, 1},
		{"place-binary", func() error { _, err := c.Place(ctx, jobs); return err }, 2},
		{"http-json", func() error { _, err := cj.Place(ctx, jobs); return err }, 106},
	} {
		call := func() {
			if err := tc.place(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 16; i++ {
			call()
		}
		got := testing.AllocsPerRun(200, call)
		t.Logf("%s: %.2f allocations per 64-job place", tc.name, got)
		if got > tc.budget {
			t.Errorf("%s: %.2f allocations per 64-job place, budget %.0f", tc.name, got, tc.budget)
		}
	}
}

// TestObserveSteadyStateAllocs is the feedback path's budget, counted
// the same way for one outcome post from a binary-codec client. With no
// keeper attached it measures 0 process-wide: the frame is encoded into
// the session's scratch, decoded in place into the daemon's, and applied
// to the shard controller on the handler's goroutine, so nothing needs a
// job of its own; budget 1. A daemon with a Learner (or an
// OutcomeObserver) attached pays for the copy those keep — the job and
// the one string its ten string fields share — and measures 2, which is
// what every post cost while outcomes rode the inference queue; budget
// 3. As JSON over net/http, which is what every client paid before
// outcomes travelled as frames on pooled stream sessions, the same call
// measures 107.
func TestObserveSteadyStateAllocs(t *testing.T) {
	fx := testFixture(t)
	ctx := context.Background()
	j := fx.jobs[0]
	o := sim.Outcome{WantedSSD: true, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}
	for _, tc := range []struct {
		name    string
		learner bool
		budget  float64
	}{
		{"no keeper", false, 1},
		{"learner", true, 3},
	} {
		reg := fx.newRegistry(t)
		cfg := testConfig()
		if tc.learner {
			// A window that is full before the measured posts (it recycles
			// its slots, as in steady state) and a learner that never has
			// enough jobs to retrain.
			lcfg := online.DefaultConfig(testCategories)
			lcfg.Window.MaxCount = 8
			l, err := online.New(reg, "w", fx.cm, lcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			cfg.Learner = l
		}
		d := startDaemon(t, reg, cfg)
		c := newCodecClient(t, d, CodecBinary)
		call := func() {
			if err := c.Observe(ctx, j, 2, o); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 16; i++ {
			call()
		}
		got := testing.AllocsPerRun(200, call)
		t.Logf("%s: %.2f allocations per outcome post", tc.name, got)
		if got > tc.budget {
			t.Errorf("%s: %.2f allocations per outcome post, budget %.0f", tc.name, got, tc.budget)
		}
		if n := d.Stats().OutcomeRequests; n < 200 {
			t.Errorf("%s: daemon counted %d outcomes, want every post", tc.name, n)
		}
		if n, posted := d.ServeStats().Observations, d.Stats().OutcomeRequests; n != posted {
			t.Errorf("%s: %d observations applied after %d acked posts", tc.name, n, posted)
		}
	}
}
