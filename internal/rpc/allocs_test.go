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
// scratch: it measures 91 — the returned decisions, the one string a
// decoded request's strings share, the response's Content-Length value
// and its slice, and 87 for the HTTP round trip itself on both ends
// (request, per-attempt deadline, connection bookkeeping, header
// parsing). It measured 103 while the client sent through an
// http.Client (5 of redirect bookkeeping), asked for gzip (4), set
// Content-Type with Header.Set (2) and the daemon chunked the ~4 KB body
// (1 more than Content-Length costs); it gets 3 of headroom for other
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
		{"http-json", func() error { _, err := cj.Place(ctx, jobs); return err }, 94},
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
// the same way for one outcome post. From a binary-codec client with no
// keeper attached it measures 0 process-wide: the frame is encoded into
// the session's scratch, decoded in place into the daemon's, and applied
// to the controller on the handler's goroutine, so nothing needs a
// job of its own; budget 1. A daemon with a Learner (or an
// OutcomeObserver) attached pays for the copy those keep — the job and
// the one string its ten string fields share — and measures 2, which is
// what every post cost while outcomes rode the inference queue; budget
// 3. From a JSON-codec client the same post is a JSON document over
// net/http, encoded and decoded by encoding/json (the cold path curl and
// non-Go clients take, and what every client paid before outcomes
// travelled as frames): it measures 101, and measured 111 while the
// client went through an http.Client, asked for gzip and set its
// Content-Type with Header.Set; budget 104.
func TestObserveSteadyStateAllocs(t *testing.T) {
	fx := testFixture(t)
	ctx := context.Background()
	j := fx.jobs[0]
	o := sim.Outcome{WantedSSD: true, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}
	for _, tc := range []struct {
		name    string
		codec   string
		learner bool
		budget  float64
	}{
		{"no keeper", CodecBinary, false, 1},
		{"learner", CodecBinary, true, 3},
		{"json", CodecJSON, false, 104},
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
		c := newCodecClient(t, d, tc.codec)
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
