package router

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPlaneKillRestartUnderLoad is the fault-injection e2e: a 3-node
// plane under concurrent routed load has one node hard-killed
// mid-run, a new model version published while it is down, and the
// node restarted — with ZERO failed placements end to end, and every
// node (including the restarted one) converging to the live version.
// The CI plane-e2e job runs this under -race.
func TestPlaneKillRestartUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fault-injection run; runs in the plane-e2e CI job")
	}
	fx := testFixture(t)
	p, src := newTestPlane(t, 3)
	r := newTestRouter(t, p)

	// Concurrent closed-loop load: each worker places rotating chunks
	// until told to stop. Any Place error is a failed placement — the
	// router must absorb the crash by rerouting.
	const workers, chunk = 4, 32
	var (
		placed   atomic.Int64
		failures atomic.Int64
		stop     = make(chan struct{})
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := w; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := n * chunk % (len(fx.jobs) - chunk)
				ds, err := r.Place(context.Background(), fx.jobs[lo:lo+chunk])
				if err != nil {
					failures.Add(1)
					t.Errorf("worker %d: place failed: %v", w, err)
					continue
				}
				if len(ds) != chunk {
					failures.Add(1)
					t.Errorf("worker %d: %d decisions for %d jobs", w, len(ds), chunk)
					continue
				}
				placed.Add(int64(len(ds)))
			}
		}()
	}

	// Fault sequence, all while the load loop runs: crash node 1, hot
	// publish v2 fleet-wide (the dead node must not block the other
	// two), then bring node 1 back to catch up through replication.
	time.Sleep(200 * time.Millisecond)
	if err := p.Kill(1); err != nil {
		t.Errorf("kill: %v", err)
	}
	time.Sleep(200 * time.Millisecond)
	if _, err := src.Publish(srcWorkload, fx.model, 100); err != nil {
		t.Errorf("publish v2: %v", err)
	}
	time.Sleep(200 * time.Millisecond)
	if err := p.Restart(1); err != nil {
		t.Errorf("restart: %v", err)
	}
	// Let probes readmit the node and traffic reach it again.
	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	if f := failures.Load(); f != 0 {
		t.Fatalf("%d failed placements across the kill/restart (placed %d)", f, placed.Load())
	}
	if placed.Load() == 0 {
		t.Fatal("load loop placed nothing")
	}

	// Convergence: every node, including the restarted one, serves v2.
	for i := 0; i < 3; i++ {
		i := i
		waitFor(t, 5*time.Second, "node to converge to v2", func() bool {
			return p.ModelVersion(i) == 2
		})
	}

	// The restarted node is back in rotation: probes readmitted it and
	// fresh traffic reaches it. (Its counters reset with the restart,
	// so any served jobs are post-restart.)
	waitFor(t, 5*time.Second, "restarted node to rejoin rotation", func() bool {
		for _, ns := range r.Nodes() {
			if ns.URL == p.URLs()[1] {
				return ns.Healthy
			}
		}
		return false
	})
	lo := 0
	waitFor(t, 10*time.Second, "restarted node to serve traffic again", func() bool {
		for i := 0; i < 20; i++ {
			lo = (lo + chunk) % (len(fx.jobs) - chunk)
			if _, err := r.Place(context.Background(), fx.jobs[lo:lo+chunk]); err != nil {
				t.Fatalf("post-restart place: %v", err)
			}
		}
		return p.Node(1).Stats().PlaceJobs > 0
	})

	// The router's failure counter agrees with the caller's view, and
	// the crash actually exercised the reroute path.
	rs := r.Stats()
	if rs.Failures != 0 {
		t.Errorf("router recorded %d failed batches, want 0", rs.Failures)
	}
	if rs.Reroutes == 0 && rs.Failovers == 0 {
		t.Logf("note: kill window saw no dispatch failures (probes won the race); reroute path covered by TestRouterReroutesAroundDeadNode")
	}

	// Replication stats: catch-up for 3 nodes (1 version), live v2 to
	// the 2 survivors, catch-up of 2 versions on restart.
	st := p.Replicator().Stats()
	if st.Publishes < 7 || st.Errors != 0 {
		t.Errorf("replicator stats %+v, want >= 7 publishes and 0 errors", st)
	}
}

// TestPlaneRestartConvergesWithoutLoad pins the registry-convergence
// contract in isolation: versions published while a node is down are
// replayed on restart with aligned numbering.
func TestPlaneRestartConvergesWithoutLoad(t *testing.T) {
	fx := testFixture(t)
	p, src := newTestPlane(t, 2)

	if err := p.Kill(0); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Publish(srcWorkload, fx.model, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Publish(srcWorkload, fx.model, 200); err != nil {
		t.Fatal(err)
	}
	// The live node followed the publishes...
	waitFor(t, 5*time.Second, "live node to reach v3", func() bool {
		return p.ModelVersion(1) == 3
	})
	// ...and the restarted node replays the whole history it missed.
	if err := p.Restart(0); err != nil {
		t.Fatal(err)
	}
	if got := p.ModelVersion(0); got != 3 {
		t.Errorf("restarted node serves v%d, want v3 after catch-up", got)
	}
}

// TestPlaneHotSwapUnderLoad publishes a new model version under routed
// load. A node client learns of it from a stale-version error frame,
// refreshes its schema and re-bins the batch in the scratch of the pooled
// session it is on; none of that may fail a batch or down a node, and
// every decision is served by one of the two versions.
func TestPlaneHotSwapUnderLoad(t *testing.T) {
	fx := testFixture(t)
	p, src := newTestPlane(t, 2)
	cfg := DefaultConfig(p.URLs())
	cfg.ProbeInterval = time.Minute // nothing but a dispatch may down a node
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	const workers, chunk = 4, 32
	var (
		onV2 atomic.Int64
		stop = make(chan struct{})
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := w; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := n * chunk % (len(fx.jobs) - chunk)
				ds, err := r.Place(context.Background(), fx.jobs[lo:lo+chunk])
				if err != nil {
					t.Errorf("worker %d: place failed: %v", w, err)
					return
				}
				for i, d := range ds {
					switch d.ModelVersion {
					case 1:
					case 2:
						onV2.Add(1)
					default:
						t.Errorf("worker %d: decision %d served by v%d, want v1 or v2", w, i, d.ModelVersion)
						return
					}
				}
			}
		}(w)
	}
	var once sync.Once
	halt := func() { once.Do(func() { close(stop); wg.Wait() }) }
	defer halt() // also when waitFor gives up
	time.Sleep(50 * time.Millisecond)
	if _, err := src.Publish(srcWorkload, fx.model, 100); err != nil {
		t.Errorf("publish v2: %v", err)
	}
	waitFor(t, 5*time.Second, "a decision on v2", func() bool { return onV2.Load() > 0 })
	time.Sleep(50 * time.Millisecond)
	halt()

	if rs := r.Stats(); rs.Failures != 0 || rs.Failovers != 0 || rs.Reroutes != 0 {
		t.Errorf("router stats %+v, want no failure, failover or reroute", rs)
	}
	// Each node that served v2 first told its client the schema was stale.
	var stale, sessions int64
	for i := 0; i < 2; i++ {
		st := p.Node(i).Stats()
		stale += st.BadRequests
		sessions += st.StreamSessions
	}
	if stale == 0 {
		t.Error("no node refused a stale-version frame: the swap was not exercised")
	}
	if sessions == 0 || sessions > 2*workers {
		t.Errorf("%d stream sessions across the plane, want 1..%d: a refusal must not cost a session", sessions, 2*workers)
	}
}
