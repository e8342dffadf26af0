package router

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpc"
)

// TestProbesReuseConnection: the prober keeps one connection per node
// across rounds, for a 200 and for a draining node's 503 alike, and a
// closed router leaves no probe connection or goroutine behind. Each
// node is a daemon's handler behind a listener that counts the TCP
// connections it accepts. Node 0 drains from the start, so its probes
// answer 503 and take it out of rotation; node 1 answers 200.
func TestProbesReuseConnection(t *testing.T) {
	fx := testFixture(t)
	var accepted [2]atomic.Int64
	var entries []string
	for i := range accepted {
		d, err := rpc.NewDaemon(fx.newSource(t), srcWorkload, fx.cm, testDaemonConfig())
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewUnstartedServer(d.Handler())
		srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				accepted[i].Add(1)
			}
		}
		srv.Start()
		t.Cleanup(srv.Close)
		if i == 0 {
			// A daemon that never started a listener only drains:
			// /healthz answers 503 from here on.
			if err := d.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		} else {
			t.Cleanup(func() { _ = d.Shutdown(context.Background()) })
		}
		entries = append(entries, strconv.Itoa(i)+"="+srv.URL)
	}

	baseline := runtime.NumGoroutine()
	cfg := DefaultConfig(entries)
	cfg.ProbeInterval = 50 * time.Millisecond
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 10
	waitFor(t, 10*time.Second, "10 probe rounds", func() bool {
		return r.Stats().Probes >= 2*rounds
	})
	for _, ns := range r.Nodes() {
		if want := ns.Name == "1"; ns.Healthy != want {
			t.Errorf("node %s healthy = %v, want %v", ns.Name, ns.Healthy, want)
		}
	}
	if s := r.Stats(); s.ProbeFailures < rounds {
		t.Errorf("%d probe failures in %d probes, want every probe of the draining node", s.ProbeFailures, s.Probes)
	}
	for i := range accepted {
		if n := accepted[i].Load(); n != 1 {
			t.Errorf("node %d accepted %d connections over %d+ probe rounds, want 1", i, n, rounds)
		}
	}

	r.Close()
	waitFor(t, 5*time.Second, "goroutines back to the baseline after Close", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}
