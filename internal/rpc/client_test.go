package rpc

import (
	"context"
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

// TestBinaryReprobeAfterRestart is the latch-recovery regression test:
// a binary-preferring client latches the JSON fallback against a
// JSON-only daemon, the daemon is "restarted" with binary re-enabled
// (handler swap on a fixed address), and the capped re-probe switches
// the client back to binary without a client restart.
func TestBinaryReprobeAfterRestart(t *testing.T) {
	fx := testFixture(t)

	mkDaemon := func(disableBinary bool) *Daemon {
		cfg := testConfig()
		cfg.DisableBinary = disableBinary
		d, err := NewDaemon(fx.newRegistry(t), "w", fx.cm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := d.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		})
		return d
	}
	jsonOnlyD := mkDaemon(true)
	binaryD := mkDaemon(false)

	// One stable client-facing address whose backing daemon can be
	// swapped — the in-process stand-in for killing placementd and
	// restarting it with binary re-enabled on the same port.
	var handler atomic.Pointer[http.Handler]
	h := jsonOnlyD.Handler()
	handler.Store(&h)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	}))
	defer front.Close()

	cfg := DefaultClientConfig(front.URL)
	cfg.Codec = CodecBinary
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Latch: the first place probes /v1/model, sees no bin schema and
	// falls back to JSON.
	if _, err := c.Place(context.Background(), fx.jobs[:4]); err != nil {
		t.Fatal(err)
	}
	if !c.jsonOnly.Load() {
		t.Fatal("client did not latch the JSON fallback")
	}

	// "Restart" the daemon with binary enabled. The next 255 places are
	// still inside the re-probe budget and must stay on JSON.
	h2 := binaryD.Handler()
	handler.Store(&h2)
	for i := 0; i < binaryReprobeEvery-1; i++ {
		if _, err := c.Place(context.Background(), fx.jobs[4:8]); err != nil {
			t.Fatal(err)
		}
	}
	if !c.jsonOnly.Load() {
		t.Fatal("client un-latched before the re-probe boundary")
	}
	if snap := binaryD.Stats(); snap.PlaceBinary != 0 || snap.PlaceJSON != binaryReprobeEvery-1 {
		t.Fatalf("restarted daemon saw %d binary / %d json places before the boundary, want 0 / %d",
			snap.PlaceBinary, snap.PlaceJSON, binaryReprobeEvery-1)
	}

	// The 256th fallback placement crosses the boundary: one probe,
	// then binary from here on.
	if _, err := c.Place(context.Background(), fx.jobs[8:12]); err != nil {
		t.Fatal(err)
	}
	if c.jsonOnly.Load() {
		t.Error("re-probe did not clear the JSON latch against a binary daemon")
	}
	if snap := binaryD.Stats(); snap.PlaceBinary != 1 {
		t.Errorf("boundary place used %d binary requests, want 1", snap.PlaceBinary)
	}
	if _, err := c.Place(context.Background(), fx.jobs[12:16]); err != nil {
		t.Fatal(err)
	}
	if snap := binaryD.Stats(); snap.PlaceBinary != 2 {
		t.Errorf("post-recovery place still on JSON (%d binary requests, want 2)", snap.PlaceBinary)
	}
}

// TestBinaryReprobeStaysLatchedAgainstJSONDaemon checks the capped
// probe against a daemon that stays JSON-only: the boundary place costs
// exactly one /v1/model fetch, re-latches, and keeps serving over JSON.
func TestBinaryReprobeStaysLatchedAgainstJSONDaemon(t *testing.T) {
	fx := testFixture(t)
	cfg := testConfig()
	cfg.DisableBinary = true
	d := startDaemon(t, fx.newRegistry(t), cfg)

	ccfg := DefaultClientConfig(d.BaseURL())
	ccfg.Codec = CodecBinary
	c, err := NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Place(context.Background(), fx.jobs[:2]); err != nil {
		t.Fatal(err)
	}
	probes := d.Stats().ModelRequests
	for i := 0; i < 2*binaryReprobeEvery; i++ {
		if _, err := c.Place(context.Background(), fx.jobs[:2]); err != nil {
			t.Fatal(err)
		}
	}
	if !c.jsonOnly.Load() {
		t.Error("client un-latched against a JSON-only daemon")
	}
	// 512 fallback places at the re-probe cadence of 256 = exactly 2 probes.
	if got := d.Stats().ModelRequests - probes; got != 2 {
		t.Errorf("client probed /v1/model %d times over %d places, want 2", got, 2*binaryReprobeEvery)
	}
}
