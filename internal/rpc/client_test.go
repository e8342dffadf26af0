package rpc

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestJitterBackoffEnvelope pins the retry-jitter contract: every sleep
// stays inside [base/2, base), the sequence is reproducible for a fixed
// seed (tests and BENCH recordings stay deterministic), and two clients
// with different seeds draw different sequences (the lockstep fix).
func TestJitterBackoffEnvelope(t *testing.T) {
	mk := func(seed uint64) *Client {
		cfg := DefaultClientConfig("http://127.0.0.1:1")
		cfg.JitterSeed = seed
		c, err := NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	draw := func(c *Client, n int, base time.Duration) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = c.jitterBackoff(base)
		}
		return out
	}

	const base = 8 * time.Millisecond
	a, b, c2 := mk(7), mk(7), mk(8)
	seqA, seqB, seqC := draw(a, 64, base), draw(b, 64, base), draw(c2, 64, base)
	distinct := false
	for i := range seqA {
		if seqA[i] < base/2 || seqA[i] >= base {
			t.Fatalf("draw %d: %s outside [%s, %s)", i, seqA[i], base/2, base)
		}
		if seqA[i] != seqB[i] {
			t.Fatalf("draw %d: same seed diverges (%s vs %s)", i, seqA[i], seqB[i])
		}
		if seqA[i] != seqC[i] {
			distinct = true
		}
	}
	if !distinct {
		t.Error("different seeds produced identical jitter sequences")
	}
	// Degenerate bases pass through rather than divide to zero.
	if got := a.jitterBackoff(1); got != 1 {
		t.Errorf("jitterBackoff(1ns) = %s, want 1ns", got)
	}
}

// TestRetryBackoffJitterDesynchronizes reruns the exhausted-retry path
// against an always-shedding server and checks the client still applies
// its full bounded-retry budget with jitter in play (the retry
// semantics are unchanged; only the sleep instants move).
func TestRetryBackoffJitterDesynchronizes(t *testing.T) {
	var hits atomic.Int64
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer shed.Close()

	fx := testFixture(t)
	cfg := DefaultClientConfig(shed.URL)
	cfg.MaxRetries = 3
	cfg.RetryBackoff = time.Millisecond
	cfg.JitterSeed = 99
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.PlaceOne(context.Background(), fx.jobs[0]); err == nil {
		t.Fatal("place against an always-shedding server succeeded")
	}
	if got := hits.Load(); got != 4 { // 1 attempt + 3 retries
		t.Errorf("server saw %d attempts, want 4", got)
	}
	cs := c.Stats()
	if cs.Sheds != 4 || cs.Retries != 3 || cs.Failures != 1 {
		t.Errorf("stats %+v, want 4 sheds / 3 retries / 1 failure", cs)
	}
}

// TestPlaceCancelledContext pins what a cancellation means to Place on
// either codec. A context cancelled before the call returns ctx.Err()
// and touches nothing: no model fetch, no dial. A cancel while the
// operation sleeps out a shed backoff ends it there, long before the
// sleep would. (A frame exchange already in flight is bounded by
// RequestTimeout and a context deadline, not by a bare cancel.)
func TestPlaceCancelledContext(t *testing.T) {
	fx := testFixture(t)
	for _, codec := range []string{CodecJSON, CodecBinary} {
		t.Run(codec, func(t *testing.T) {
			cfg := testConfig()
			cfg.MaxInFlightPlace = 1
			cfg.QueueDeadline = 0
			d := startDaemon(t, fx.newRegistry(t), cfg)
			ccfg := DefaultClientConfig(d.BaseURL())
			ccfg.Codec = codec
			ccfg.MaxRetries = 50
			ccfg.RetryBackoff = 10 * time.Second // one sleep outlasts the test
			c, err := NewClient(ccfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := c.Place(ctx, fx.jobs[:4]); err != context.Canceled {
				t.Errorf("place on a cancelled context: %v, want context.Canceled itself", err)
			}
			if st := d.Stats(); st.ModelRequests != 0 || st.StreamSessions != 0 || st.PlaceRequests != 0 {
				t.Errorf("a cancelled place reached the daemon: %d model fetches, %d sessions, %d places",
					st.ModelRequests, st.StreamSessions, st.PlaceRequests)
			}
			if cs := c.Stats(); cs.Requests != 1 || cs.Failures != 1 {
				t.Errorf("client stats %+v, want the one operation counted as failed", cs)
			}

			// The first place leaves a session (or connection) to reuse; then
			// every attempt sheds.
			if _, err := c.Place(context.Background(), fx.jobs[:4]); err != nil {
				t.Fatal(err)
			}
			if !d.place.acquire(context.Background()) {
				t.Fatal("could not occupy the place slot")
			}
			ctx, cancel = context.WithCancel(context.Background())
			defer cancel()
			sheds := c.Stats().Sheds
			go func() {
				for c.Stats().Sheds == sheds {
					time.Sleep(time.Millisecond)
				}
				cancel() // the operation is in its backoff sleep
			}()
			start := time.Now()
			_, err = c.Place(ctx, fx.jobs[4:8])
			if !errors.Is(err, context.Canceled) {
				t.Errorf("place cancelled in backoff: %v, want context.Canceled", err)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Errorf("cancelled place returned after %s; the backoff sleep was not interrupted", elapsed)
			}
			// The session survives a cancel between attempts.
			d.place.release()
			if _, err := c.Place(context.Background(), fx.jobs[8:12]); err != nil {
				t.Errorf("place after the cancelled one: %v", err)
			}
			if got := d.Stats().StreamSessions; codec == CodecBinary && got != 1 {
				t.Errorf("%d stream sessions, want the one session to carry all three places", got)
			}
		})
	}
}
