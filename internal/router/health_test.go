package router

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/rpc/wire"
	"repro/internal/sim"
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

// TestProbesSkipAnsweringNodes: traffic is the health check. While
// routed places and outcomes keep both nodes answering, no round sends
// either a /healthz GET (at most one each over 12 rounds); once the
// traffic stops, GETs resume every round and Stats.Probes counts
// exactly the GETs sent. A node drained while traffic flows serves its
// open sessions until the drain expires them, the next dispatch there
// fails over with no failed placement or outcome, and the node stays
// down on its probes' 503. Each node is a daemon's handler behind a
// wrapper that counts the GETs it is sent.
func TestProbesSkipAnsweringNodes(t *testing.T) {
	fx := testFixture(t)
	var gets [2]atomic.Int64
	var daemons [2]*rpc.Daemon
	var entries []string
	for i := range daemons {
		d, err := rpc.NewDaemon(fx.newSource(t), srcWorkload, fx.cm, testDaemonConfig())
		if err != nil {
			t.Fatal(err)
		}
		h := d.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == wire.PathHealth {
				gets[i].Add(1)
			}
			h.ServeHTTP(w, req)
		}))
		t.Cleanup(srv.Close)
		t.Cleanup(func() { _ = d.Shutdown(context.Background()) })
		daemons[i] = d
		entries = append(entries, strconv.Itoa(i)+"="+srv.URL)
	}
	const interval = 50 * time.Millisecond
	cfg := DefaultConfig(entries)
	cfg.ProbeInterval = interval
	cfg.MaxReroutes = 3
	cfg.Client.RetryBackoff = time.Millisecond
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	state := func(name string) NodeState {
		for _, ns := range r.Nodes() {
			if ns.Name == name {
				return ns
			}
		}
		t.Fatalf("no node %s", name)
		return NodeState{}
	}
	snapshot := func() [2]int64 { return [2]int64{gets[0].Load(), gets[1].Load()} }
	waitBusy := func() {
		from := [2]int64{r.nodes["0"].answers.Load(), r.nodes["1"].answers.Load()}
		waitFor(t, 5*time.Second, "traffic on both nodes", func() bool {
			return r.nodes["0"].answers.Load() > from[0] && r.nodes["1"].answers.Load() > from[1]
		})
	}

	// Busy: both nodes answer every round, so no round sends a GET.
	stop := startRoutedTraffic(t, r, fx)
	waitBusy()
	before := snapshot()
	time.Sleep(12 * interval)
	after := snapshot()
	if failed := stop(); failed != 0 {
		t.Fatalf("%d routed calls failed on a healthy plane", failed)
	}
	for i := range gets {
		if n := after[i] - before[i]; n > 1 {
			t.Errorf("busy node %d was sent %d GETs over 12 rounds, want at most 1", i, n)
		}
		if ns := state(strconv.Itoa(i)); !ns.Healthy || ns.Weight != 1 {
			t.Errorf("busy node %d: healthy %v at weight %.2f, want healthy at 1", i, ns.Healthy, ns.Weight)
		}
	}

	// Quiet: GETs resume every round, and Probes counts exactly them.
	quiet := snapshot()
	waitFor(t, 10*time.Second, "5 GETs to each quiet node", func() bool {
		now := snapshot()
		return now[0]-quiet[0] >= 5 && now[1]-quiet[1] >= 5
	})
	// The first quiet round may still skip a node that answered late
	// in the round before, and a round may be half done: 2 of slack.
	if now := snapshot(); now[0]-quiet[0] > now[1]-quiet[1]+2 || now[1]-quiet[1] > now[0]-quiet[0]+2 {
		t.Errorf("quiet nodes were sent %d and %d GETs, want one each every round", now[0]-quiet[0], now[1]-quiet[1])
	}
	waitFor(t, 5*time.Second, "Stats.Probes to count the GETs sent", func() bool {
		now := snapshot()
		return r.Stats().Probes == now[0]+now[1]
	})

	// Drained under load: the dispatch path fails node 0 over, and its
	// 503s keep it down.
	stop = startRoutedTraffic(t, r, fx)
	waitBusy()
	time.Sleep(2 * interval)
	if err := daemons[0].Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the drained node to be failed over", func() bool {
		return !state("0").Healthy
	})
	time.Sleep(2 * interval)
	if failed := stop(); failed != 0 {
		t.Errorf("%d routed calls failed across the drain, want 0", failed)
	}
	drained := snapshot()
	waitFor(t, 10*time.Second, "3 GETs to the drained node", func() bool {
		return gets[0].Load()-drained[0] >= 3
	})
	if ns := state("0"); ns.Healthy {
		t.Errorf("drained node readmitted at weight %.2f; its probes answer 503", ns.Weight)
	}
	if ns := state("1"); !ns.Healthy {
		t.Error("the surviving node is down")
	}
	if s := r.Stats(); s.Failures != 0 || s.ProbeFailures == 0 {
		t.Errorf("router stats %+v, want 0 failures and the drained node's failed probes", s)
	}
}

// startRoutedTraffic runs routed 32-job places, each followed by one
// outcome per placed job, on two goroutines until the returned stop is
// called; stop reports how many calls failed.
func startRoutedTraffic(t *testing.T, r *Router, fx fixture) (stop func() int64) {
	const workers, chunk = 2, 32
	var (
		failed atomic.Int64
		done   = make(chan struct{})
		wg     sync.WaitGroup
	)
	o := sim.Outcome{WantedSSD: true, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := w; ; n += workers {
				select {
				case <-done:
					return
				default:
				}
				lo := n * chunk % (len(fx.jobs) - chunk)
				jobs := fx.jobs[lo : lo+chunk]
				ds, err := r.Place(ctx, jobs)
				if err != nil {
					failed.Add(1)
					t.Errorf("place: %v", err)
					continue
				}
				for i, d := range ds {
					if err := r.Observe(ctx, jobs[i], d.Category, o); err != nil {
						failed.Add(1)
						t.Errorf("observe: %v", err)
					}
				}
			}
		}()
	}
	return func() int64 {
		close(done)
		wg.Wait()
		return failed.Load()
	}
}
