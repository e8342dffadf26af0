package rpc

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rpc/wire"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestStreamPlace drives the persistent streaming mode end to end:
// upgrade, many pipelined batches on one connection, counters, close.
func TestStreamPlace(t *testing.T) {
	fx := testFixture(t)
	d := startDaemon(t, fx.newRegistry(t), testConfig())
	c := newCodecClient(t, d, CodecBinary)

	s, err := c.OpenStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var got []wire.Decision
	for lo := 0; lo < 120; lo += 30 {
		ds, err := s.Place(context.Background(), fx.jobs[lo:lo+30])
		if err != nil {
			t.Fatalf("stream place at %d: %v", lo, err)
		}
		got = append(got, ds...)
	}
	if len(got) != 120 {
		t.Fatalf("%d decisions, want 120", len(got))
	}
	for i, dec := range got {
		if dec.JobID != fx.jobs[i].ID {
			t.Fatalf("decision %d carries job %q, want %q", i, dec.JobID, fx.jobs[i].ID)
		}
		if dec.ModelVersion != 1 {
			t.Fatalf("decision %d served by v%d, want v1", i, dec.ModelVersion)
		}
	}
	snap := d.Stats()
	if snap.StreamSessions != 1 || snap.PlaceBinary != 4 {
		t.Errorf("daemon counted %d sessions / %d binary places, want 1 / 4", snap.StreamSessions, snap.PlaceBinary)
	}
	if snap.PlaceBinary != 4 {
		t.Errorf("stream frames not counted as binary places: %d", snap.PlaceBinary)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if _, err := s.Place(context.Background(), fx.jobs[:1]); err == nil {
		t.Error("place on a closed session succeeded")
	}
}

// TestStreamMatchesRequestResponse checks the decisions of a session the
// caller holds are bit-identical to the request/response JSON path on a
// fresh daemon (same statefulness caveat as the cross-codec test).
func TestStreamMatchesRequestResponse(t *testing.T) {
	fx := testFixture(t)
	jobs := fx.jobs[:100]

	viaHTTP := func() []wire.Decision {
		d := startDaemon(t, fx.newRegistry(t), testConfig())
		c := newCodecClient(t, d, CodecJSON)
		var out []wire.Decision
		for lo := 0; lo < len(jobs); lo += 25 {
			ds, err := c.Place(context.Background(), jobs[lo:lo+25])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ds...)
		}
		return out
	}()
	viaStream := func() []wire.Decision {
		d := startDaemon(t, fx.newRegistry(t), testConfig())
		c := newCodecClient(t, d, CodecBinary)
		s, err := c.OpenStream(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var out []wire.Decision
		for lo := 0; lo < len(jobs); lo += 25 {
			ds, err := s.Place(context.Background(), jobs[lo:lo+25])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ds...)
		}
		return out
	}()
	for i := range viaHTTP {
		if viaHTTP[i] != viaStream[i] {
			t.Fatalf("decision %d diverges:\n  http:   %+v\n  stream: %+v", i, viaHTTP[i], viaStream[i])
		}
	}
}

// TestStreamDaemonDeathMidFrame covers the crash path: the daemon is
// hard-killed while a place frame is outstanding (the connection is
// reset under the client) and again between frames (the blocked read
// sees a clean close). Both must surface ErrStreamBroken — the typed
// signal internal/router keys rerouting on — and poison the session.
func TestStreamDaemonDeathMidFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("kills a live daemon; runs in the plane-e2e CI job")
	}
	fx := testFixture(t)

	// Variant 1: killed mid-frame. A 1-slot daemon whose slot we occupy
	// pins the in-flight frame in admission, so the kill lands while the
	// client is blocked on its response.
	cfg := testConfig()
	cfg.MaxInFlightPlace = 1
	cfg.QueueDeadline = 300 * time.Millisecond
	d, err := NewDaemon(fx.newRegistry(t), "w", fx.cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c := newCodecClient(t, d, CodecBinary)
	s, err := c.OpenStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Place(context.Background(), fx.jobs[:2]); err != nil {
		t.Fatal(err)
	}
	if !d.place.acquire(context.Background()) {
		t.Fatal("could not occupy the place slot")
	}
	defer d.place.release()
	kill := time.AfterFunc(50*time.Millisecond, func() { _ = d.Kill() })
	defer kill.Stop()
	_, err = s.Place(context.Background(), fx.jobs[2:4])
	if !errors.Is(err, ErrStreamBroken) {
		t.Fatalf("mid-frame kill surfaced %v, want ErrStreamBroken", err)
	}
	if !s.broken {
		t.Error("session is not marked broken after a mid-frame kill")
	}
	// The poisoned session stays typed so routers can keep matching it.
	if _, err := s.Place(context.Background(), fx.jobs[:1]); !errors.Is(err, ErrStreamBroken) {
		t.Errorf("place on a poisoned session surfaced %v, want ErrStreamBroken", err)
	}

	// Variant 2: killed between frames. The daemon closes the hijacked
	// connection while the session is idle; the client discovers the
	// clean close on its next exchange.
	d2, err := NewDaemon(fx.newRegistry(t), "w", fx.cm, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c2 := newCodecClient(t, d2, CodecBinary)
	s2, err := c2.OpenStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Place(context.Background(), fx.jobs[:2]); err != nil {
		t.Fatal(err)
	}
	// A session the caller closes itself reports a plain closed error,
	// not the broken marker routers reroute on.
	s3, err := c2.OpenStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_ = s3.Close()
	if _, err := s3.Place(context.Background(), fx.jobs[:1]); err == nil || errors.Is(err, ErrStreamBroken) {
		t.Errorf("caller-closed session surfaced %v, want a plain closed error", err)
	}
	if err := d2.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if _, err := s2.Place(context.Background(), fx.jobs[2:4]); !errors.Is(err, ErrStreamBroken) {
		t.Errorf("idle-kill place surfaced %v, want ErrStreamBroken", err)
	}
}

// TestStreamShutdownDrain checks Shutdown does not hang on live stream
// sessions: hijacked connections are expired and the daemon exits
// within the drain deadline.
func TestStreamShutdownDrain(t *testing.T) {
	fx := testFixture(t)
	d, err := NewDaemon(fx.newRegistry(t), "w", fx.cm, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ccfg := DefaultClientConfig(d.BaseURL())
	ccfg.Codec = CodecBinary
	c, err := NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.OpenStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Place(context.Background(), fx.jobs[:3]); err != nil {
		t.Fatal(err)
	}

	// The session is idle-blocked in a frame read; Shutdown must expire
	// it rather than wait forever.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with a live stream: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("shutdown took %s with an idle stream", elapsed)
	}
	if got := d.Stats().BadRequests; got != 0 {
		t.Errorf("draining an idle session counted %d bad requests", got)
	}
	if _, err := s.Place(context.Background(), fx.jobs[:1]); err == nil {
		t.Error("place on a drained stream succeeded")
	}
}

// TestObserveConcurrentSessions drives the idle-session list from more
// goroutines than it holds sessions: every outcome lands exactly once,
// overlapping calls each get a session of their own, and no more than
// the cap stay parked afterwards.
func TestObserveConcurrentSessions(t *testing.T) {
	fx := testFixture(t)
	d := startDaemon(t, fx.newRegistry(t), testConfig())
	c := newCodecClient(t, d, CodecBinary)
	const workers, each = maxIdleSessions + 8, 20
	o := sim.Outcome{WantedSSD: true, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := c.Observe(context.Background(), fx.jobs[(w*each+i)%len(fx.jobs)], 1, o); err != nil {
					t.Errorf("worker %d outcome %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := d.Stats().OutcomeRequests; got != workers*each {
		t.Errorf("daemon served %d outcomes, want %d", got, workers*each)
	}
	c.idleMu.Lock()
	parked := len(c.idle)
	c.idleMu.Unlock()
	if parked == 0 || parked > maxIdleSessions {
		t.Errorf("%d sessions parked, want 1..%d", parked, maxIdleSessions)
	}
	c.Close()
	if err := c.Observe(context.Background(), fx.jobs[0], 1, o); err != nil {
		t.Errorf("observe after Close: %v", err)
	}
	c.idleMu.Lock()
	parked = len(c.idle)
	c.idleMu.Unlock()
	if parked != 0 {
		t.Errorf("%d sessions parked on a closed client", parked)
	}
}

// TestPlaceSessionsBounded pins what Place costs in connections: only as
// many sessions are dialled as places overlap, however many places run.
// Eight goroutines share one client for 200 places each; every place
// succeeds, every decision answers its own job, and the daemon has seen
// at most eight sessions.
func TestPlaceSessionsBounded(t *testing.T) {
	fx := testFixture(t)
	d := startDaemon(t, fx.newRegistry(t), testConfig())
	c := newCodecClient(t, d, CodecBinary)
	const workers, each, chunk = 8, 200, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				lo := (w*each + i) % (len(fx.jobs) - chunk)
				ds, err := c.Place(context.Background(), fx.jobs[lo:lo+chunk])
				if err != nil {
					t.Errorf("worker %d place %d: %v", w, i, err)
					return
				}
				for k, dec := range ds {
					if dec.JobID != fx.jobs[lo+k].ID {
						t.Errorf("worker %d place %d: decision %d names %q, its job is %q", w, i, k, dec.JobID, fx.jobs[lo+k].ID)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := d.Stats()
	if st.PlaceBinary != workers*each {
		t.Errorf("daemon served %d binary places, want %d", st.PlaceBinary, workers*each)
	}
	if st.StreamSessions < 1 || st.StreamSessions > workers {
		t.Errorf("%d places from %d goroutines dialled %d sessions, want 1..%d", workers*each, workers, st.StreamSessions, workers)
	}
	if cs := c.Stats(); cs.Failures != 0 {
		t.Errorf("client counted %d failures", cs.Failures)
	}
}

// TestStreamLatencyExcludesIdleTime pins when a stream request's clock
// starts: at its first byte, not when the session went back to waiting.
// Sessions idle between frames (an outcome session sits parked in the
// client's idle list), and that think time belongs in neither the
// latency nor the queue-wait histogram.
func TestStreamLatencyExcludesIdleTime(t *testing.T) {
	fx := testFixture(t)
	d := startDaemon(t, fx.newRegistry(t), testConfig())
	c := newCodecClient(t, d, CodecBinary)
	ctx := context.Background()
	s, err := c.OpenStream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	o := sim.Outcome{WantedSSD: true, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}
	const idle = 200 * time.Millisecond
	for round := 0; round < 2; round++ {
		if round > 0 {
			time.Sleep(idle)
		}
		if _, err := s.Place(ctx, fx.jobs[:4]); err != nil {
			t.Fatal(err)
		}
		if err := c.Observe(ctx, fx.jobs[0], 1, o); err != nil {
			t.Fatal(err)
		}
	}
	for name, h := range map[string]*obs.Histogram{
		"stream place latency": &d.hists.placeBinary, "outcome latency": &d.hists.outcome, "queue wait": &d.hists.queueWait,
	} {
		if snap := h.Snapshot(); snap.Count == 0 || time.Duration(snap.Max) >= idle {
			t.Errorf("%s: %d samples, max %s; a session idle for %s must not show", name, snap.Count, time.Duration(snap.Max), idle)
		}
	}
}

// slowObserver stalls on its nth call and counts them all.
type slowObserver struct {
	calls atomic.Int64
	nth   int64
	stall time.Duration
}

func (o *slowObserver) Observe(*trace.Job, sim.Outcome) {
	if o.calls.Add(1) == o.nth {
		time.Sleep(o.stall)
	}
}

// TestObserveTimeoutIsNotResent pins what the one re-send on a reused
// session must not do. A daemon too slow to ack inside RequestTimeout is
// alive and is applying the outcome; the client returns the timeout after
// one RequestTimeout and sends nothing again, on frames as over HTTP.
// Re-sending would feed the controller, the learner and the heat tracker
// the same outcome twice under the very overload that caused the timeout.
func TestObserveTimeoutIsNotResent(t *testing.T) {
	fx := testFixture(t)
	const timeout = 100 * time.Millisecond
	o := sim.Outcome{WantedSSD: true, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}
	for _, codec := range []string{CodecJSON, CodecBinary} {
		t.Run(codec, func(t *testing.T) {
			slow := &slowObserver{nth: 2, stall: 3 * timeout}
			cfg := testConfig()
			cfg.OutcomeObserver = slow
			d := startDaemon(t, fx.newRegistry(t), cfg)
			ccfg := DefaultClientConfig(d.BaseURL())
			ccfg.Codec = codec
			ccfg.RequestTimeout = timeout
			c, err := NewClient(ccfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ctx := context.Background()
			// The first outcome leaves a connection (or session) to reuse.
			if err := c.Observe(ctx, fx.jobs[0], 1, o); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			err = c.Observe(ctx, fx.jobs[1], 1, o)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("observe against a stalled daemon succeeded")
			}
			var refused *Error
			if errors.As(err, &refused) {
				t.Errorf("a timeout surfaced as a refusal: %v", err)
			}
			if elapsed < timeout || elapsed >= 2*timeout {
				t.Errorf("timed-out observe took %s, want one RequestTimeout (%s), not two", elapsed, timeout)
			}
			time.Sleep(4 * timeout) // the stalled outcome, and a second one if it was sent
			if got := slow.calls.Load(); got != 2 {
				t.Errorf("the daemon applied %d outcomes for 2 posts: the timed-out one was sent again", got)
			}
			if got := d.Stats().OutcomeRequests; got != 2 {
				t.Errorf("daemon counted %d outcome requests, want 2", got)
			}
			// The broken session is gone; the next outcome dials afresh.
			if err := c.Observe(ctx, fx.jobs[2], 1, o); err != nil {
				t.Errorf("observe after the timeout: %v", err)
			}
		})
	}
	// The same rule for a place on a pooled session: the batch waits in
	// admission past RequestTimeout, the client returns after one of them,
	// and the daemon serves that frame once and no second one.
	t.Run("place", func(t *testing.T) {
		cfg := testConfig()
		cfg.MaxInFlightPlace = 1
		cfg.QueueDeadline = 10 * timeout
		d := startDaemon(t, fx.newRegistry(t), cfg)
		ccfg := DefaultClientConfig(d.BaseURL())
		ccfg.Codec = CodecBinary
		ccfg.RequestTimeout = timeout
		c, err := NewClient(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx := context.Background()
		if _, err := c.Place(ctx, fx.jobs[:4]); err != nil {
			t.Fatal(err)
		}
		if !d.place.acquire(ctx) {
			t.Fatal("could not occupy the place slot")
		}
		release := time.AfterFunc(3*timeout, d.place.release)
		defer release.Stop()
		start := time.Now()
		_, err = c.Place(ctx, fx.jobs[4:8])
		elapsed := time.Since(start)
		if !errors.Is(err, ErrStreamBroken) {
			t.Fatalf("place against a stalled daemon: %v, want a broken stream", err)
		}
		if elapsed < timeout || elapsed >= 2*timeout {
			t.Errorf("timed-out place took %s, want one RequestTimeout (%s), not two", elapsed, timeout)
		}
		time.Sleep(4 * timeout) // the stalled frame is served, and a second one if it was sent
		if st := d.Stats(); st.PlaceRequests != 2 || st.StreamSessions != 1 {
			t.Errorf("%d places over %d sessions, want 2 over 1: the timed-out place was sent again", st.PlaceRequests, st.StreamSessions)
		}
		if _, err := c.Place(ctx, fx.jobs[8:12]); err != nil {
			t.Errorf("place after the timeout: %v", err)
		}
	})
}

// TestObserveGarbledReplyIsNotResent is the protocol-error half of the
// same rule, for both operations: a reused session that answers with the
// wrong frame is broken, and its daemon is alive, so the request is not
// sent again.
func TestObserveGarbledReplyIsNotResent(t *testing.T) {
	fx := testFixture(t)
	ctx := context.Background()
	o := sim.Outcome{WantedSSD: true, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}
	for _, row := range []struct {
		name string
		// call is the operation under test; stray appends a request of the
		// other kind, whose answer the next call reads where its own
		// should be.
		call   func(c *Client, n int) error
		stray  func(c *Client, s *StreamSession) error
		served func(st DaemonStats) int64
	}{
		{
			name: "outcome",
			call: func(c *Client, n int) error { return c.Observe(ctx, fx.jobs[n], 1, o) },
			stray: func(c *Client, s *StreamSession) error {
				return encodeBinaryPlace(c.binState.Load(), fx.jobs[:2], 0, &s.sc)
			},
			served: func(st DaemonStats) int64 { return st.OutcomeRequests },
		},
		{
			name: "place",
			call: func(c *Client, n int) error { _, err := c.Place(ctx, fx.jobs[n:n+2]); return err },
			stray: func(c *Client, s *StreamSession) (err error) {
				req := wire.OutcomeRequest{Job: fx.jobs[0], Category: 1, Outcome: wire.OutcomeOf(o)}
				s.sc.frame, err = wire.AppendOutcomeFrame(s.sc.frame[:0], 0, &req)
				return err
			},
			served: func(st DaemonStats) int64 { return st.PlaceRequests },
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			d := startDaemon(t, fx.newRegistry(t), testConfig())
			c := newCodecClient(t, d, CodecBinary)
			if err := row.call(c, 0); err != nil {
				t.Fatal(err)
			}
			s := c.takeIdle()
			if s == nil {
				t.Fatal("no idle session after the first call")
			}
			if err := row.stray(c, s); err != nil {
				t.Fatal(err)
			}
			if _, err := s.conn.Write(s.sc.frame); err != nil {
				t.Fatal(err)
			}
			c.putIdle(s)
			err := row.call(c, 2)
			if !errors.Is(err, ErrStreamBroken) {
				t.Fatalf("call on a session with a stray reply: %v, want a broken stream", err)
			}
			deadline := time.Now().Add(2 * time.Second)
			for row.served(d.Stats()) < 2 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond)
			if st := d.Stats(); row.served(st) != 2 || st.StreamSessions != 1 {
				t.Errorf("%d requests served over %d sessions, want 2 over 1: the request was sent again", row.served(st), st.StreamSessions)
			}
		})
	}
}

// TestObserveSurvivesModelFetchFailure: a binary-codec client whose first
// call is Observe (a router's node client) and whose model fetch fails
// does not know what the daemon speaks, so the outcome goes as JSON, as
// it did before there were outcome frames; a transient fetch error must
// not read as a failed node. The next outcome fetches again and travels
// as a frame.
func TestObserveSurvivesModelFetchFailure(t *testing.T) {
	fx := testFixture(t)
	d := startDaemon(t, fx.newRegistry(t), testConfig())
	var failed atomic.Bool
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == wire.PathModel && failed.CompareAndSwap(false, true) {
			http.Error(w, "try again", http.StatusServiceUnavailable)
			return
		}
		d.Handler().ServeHTTP(w, r)
	}))
	defer front.Close()
	ccfg := DefaultClientConfig(front.URL)
	ccfg.Codec = CodecBinary
	c, err := NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	o := sim.Outcome{WantedSSD: true, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}
	if err := c.Observe(context.Background(), fx.jobs[0], 1, o); err != nil {
		t.Fatalf("observe with the model fetch failing: %v", err)
	}
	if st := d.Stats(); st.OutcomeRequests != 1 || st.StreamSessions != 0 {
		t.Errorf("%d outcomes over %d stream sessions, want 1 over 0 (JSON)", st.OutcomeRequests, st.StreamSessions)
	}
	if err := c.Observe(context.Background(), fx.jobs[1], 1, o); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.OutcomeRequests != 2 || st.StreamSessions != 1 {
		t.Errorf("%d outcomes over %d stream sessions, want 2 over 1 (a frame)", st.OutcomeRequests, st.StreamSessions)
	}
}
