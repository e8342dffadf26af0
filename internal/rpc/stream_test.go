package rpc

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/rpc/wire"
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
	if snap.StreamSessions != 1 || snap.StreamFrames != 4 {
		t.Errorf("daemon counted %d sessions / %d frames, want 1 / 4", snap.StreamSessions, snap.StreamFrames)
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

// TestStreamMatchesRequestResponse checks stream decisions are
// bit-identical to the request/response binary path on a fresh daemon
// (same statefulness caveat as the cross-codec test).
func TestStreamMatchesRequestResponse(t *testing.T) {
	fx := testFixture(t)
	jobs := fx.jobs[:100]

	viaHTTP := func() []wire.Decision {
		d := startDaemon(t, fx.newRegistry(t), testConfig())
		c := newCodecClient(t, d, CodecBinary)
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
	if !s.Broken() {
		t.Error("session does not report Broken after a mid-frame kill")
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

// TestStreamDisabled checks a DisableBinary daemon refuses upgrades.
func TestStreamDisabled(t *testing.T) {
	fx := testFixture(t)
	cfg := testConfig()
	cfg.DisableBinary = true
	d := startDaemon(t, fx.newRegistry(t), cfg)
	c := newCodecClient(t, d, CodecBinary)
	if _, err := c.OpenStream(context.Background()); err == nil {
		t.Fatal("stream opened against a JSON-only daemon")
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
	if _, err := s.Place(context.Background(), fx.jobs[:1]); err == nil {
		t.Error("place on a drained stream succeeded")
	}
}
