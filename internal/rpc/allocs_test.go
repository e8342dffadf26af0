//go:build !race

package rpc

import (
	"context"
	"runtime"
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
// scratch: it measures 81. 10 of them are ours: on the client the
// returned decisions, the request copied from the one NewClient parsed
// (1), its deadline (4: context.WithTimeout's context, cancel func,
// timer and timer closure) and the context carrying the trace that
// counts the body's writes (1); on the daemon the one string a decoded
// request's strings share and the response's Content-Length value and
// its slice. The other 71 are net/http's, for the round trip on both
// ends: its own request and cancel contexts, connection bookkeeping,
// header writing and parsing, body readers. It measured 103 while the
// client sent through an http.Client (5 of redirect bookkeeping), asked
// for gzip (4), set Content-Type with Header.Set (2) and the daemon
// chunked the ~4 KB body (1 more than Content-Length costs), and 91
// while each attempt built its request with http.NewRequestWithContext
// (URL, header map, GetBody closure, NopCloser, bytes.Reader: 6) and
// wrote past the transport's 4 KiB write buffer (32 KiB copy buffer and
// more: 4). It gets 3 of headroom for other toolchains. (sync.Pool drops
// items at random under the race detector, hence the build tag.)
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
		{"http-json", func() error { _, err := cj.Place(ctx, jobs); return err }, 84},
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
// travelled as frames): it measures 95. The client's own share is the
// place's 6 per attempt (request copy, deadline, trace context) plus
// what encoding/json takes to encode the request; the daemon's
// encoding/json decode of the job and net/http's round trip make the
// rest. It measured 111 while the client went through an http.Client,
// asked for gzip and set its Content-Type with Header.Set, and 101 while
// each attempt built its request with http.NewRequestWithContext;
// budget 98.
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
		{"json", CodecJSON, false, 98},
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

// TestPlaceJSONAllocsBytes is the JSON place's bytes budget: heap bytes
// allocated process-wide per 64-job place, measured as for
// TestPlaceSteadyStateAllocs. It measures 26–31 KB, most of it the
// daemon's decoded request strings and the returned decisions. It
// measured 63.4 KB while the request body went past the transport's
// 4 KiB write buffer into TCPConn.ReadFrom, whose io.Copy allocates a
// 32 KiB buffer per request; the budget of 40 KB keeps that buffer out.
func TestPlaceJSONAllocsBytes(t *testing.T) {
	fx := testFixture(t)
	d := startDaemon(t, fx.newRegistry(t), testConfig())
	c := newCodecClient(t, d, CodecJSON)
	jobs := fx.jobs[:64]
	ctx := context.Background()
	place := func() {
		if _, err := c.Place(ctx, jobs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		place()
	}
	const runs, budget = 200, 40 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		place()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f bytes allocated per 64-job JSON place", got)
	if got > budget {
		t.Errorf("%.0f bytes allocated per 64-job JSON place, budget %d", got, budget)
	}
}
