package router

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/rpc/wire"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestRouterSpreadsByTemplate checks the routing contract on a healthy
// plane: every job gets a decision in input order, a template's jobs
// all land on the ring owner for its hash, and traffic spreads over
// more than one node.
func TestRouterSpreadsByTemplate(t *testing.T) {
	fx := testFixture(t)
	p, _ := newTestPlane(t, 3)
	r := newTestRouter(t, p)

	jobs := fx.jobs[:600]
	for lo := 0; lo < len(jobs); lo += 50 {
		ds, err := r.Place(context.Background(), jobs[lo:lo+50])
		if err != nil {
			t.Fatalf("place at %d: %v", lo, err)
		}
		for i, d := range ds {
			if d.JobID != jobs[lo+i].ID {
				t.Fatalf("decision %d carries job %q, want %q", lo+i, d.JobID, jobs[lo+i].ID)
			}
			if d.ModelVersion != 1 {
				t.Fatalf("decision %d served by v%d, want v1", lo+i, d.ModelVersion)
			}
		}
	}

	// All placements arrived somewhere, and at a plane-wide total that
	// matches what was sent.
	nodesHit, total := 0, int64(0)
	var snaps []rpc.DaemonStats
	for i := 0; i < 3; i++ {
		snap := p.Node(i).Stats()
		snaps = append(snaps, snap)
		total += snap.PlaceJobs
		if snap.PlaceJobs > 0 {
			nodesHit++
		}
	}
	if total != int64(len(jobs)) {
		t.Errorf("plane served %d placements, want %d (per node: %+v)", total, len(jobs), snaps)
	}
	if nodesHit < 2 {
		t.Errorf("traffic hit %d of 3 nodes; the ring is not spreading", nodesHit)
	}
	rs := r.Stats()
	if rs.Batches != int64(len(jobs)/50) || rs.Jobs != int64(len(jobs)) || rs.Failures != 0 {
		t.Errorf("router stats %+v", rs)
	}
}

// routeKey returns the name of the node that owns a template key,
// health and load aside: the pure ownership view.
func routeKey(r *Router, key uint32) (string, bool) {
	return r.ring.Route(uint64(key), nil)
}

// TestRouterOwnershipConsistency pins that Place honours ring
// ownership: with all nodes healthy and idle, a single-template batch
// lands exactly on routeKey's node.
func TestRouterOwnershipConsistency(t *testing.T) {
	fx := testFixture(t)
	p, _ := newTestPlane(t, 3)
	r := newTestRouter(t, p)

	job := fx.jobs[0]
	owner, ok := routeKey(r, serve.TemplateHash(job))
	if !ok {
		t.Fatal("no owner for the test template")
	}
	if _, err := r.Place(context.Background(), []*trace.Job{job}); err != nil {
		t.Fatal(err)
	}
	urls := p.URLs()
	for i, url := range urls {
		snap := p.Node(i).Stats()
		if url == owner && snap.PlaceJobs != 1 {
			t.Errorf("owner %s served %d jobs, want 1", url, snap.PlaceJobs)
		}
		if url != owner && snap.PlaceJobs != 0 {
			t.Errorf("non-owner %s served %d jobs, want 0", url, snap.PlaceJobs)
		}
	}
}

// TestRouterObserveRoutesToOwner pins the outcome-feedback contract:
// an outcome routes to the same ring owner the template's placements
// route to, lands exactly once, and increments the outcomes counter.
func TestRouterObserveRoutesToOwner(t *testing.T) {
	fx := testFixture(t)
	p, _ := newTestPlane(t, 3)
	r := newTestRouter(t, p)

	job := fx.jobs[0]
	owner, ok := routeKey(r, serve.TemplateHash(job))
	if !ok {
		t.Fatal("no owner for the test template")
	}
	ds, err := r.Place(context.Background(), []*trace.Job{job})
	if err != nil {
		t.Fatal(err)
	}
	d := ds[0]
	o := sim.Outcome{WantedSSD: d.Admit, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}
	if err := r.Observe(context.Background(), job, d.Category, o); err != nil {
		t.Fatalf("observe: %v", err)
	}
	for i, url := range p.URLs() {
		snap := p.Node(i).Stats()
		if url == owner && snap.OutcomeRequests != 1 {
			t.Errorf("owner %s saw %d outcomes, want 1", url, snap.OutcomeRequests)
		}
		if url != owner && snap.OutcomeRequests != 0 {
			t.Errorf("non-owner %s saw %d outcomes, want 0", url, snap.OutcomeRequests)
		}
	}
	if got := r.Stats().Outcomes; got != 1 {
		t.Errorf("router outcomes counter = %d, want 1", got)
	}
	if err := r.Observe(context.Background(), nil, 0, o); err == nil {
		t.Error("nil-job observe accepted")
	}
}

// TestRouterObserveFailsOver kills the owning node: the outcome must
// still land, rerouted to the next ring owner, with the dead node
// marked down.
func TestRouterObserveFailsOver(t *testing.T) {
	fx := testFixture(t)
	p, _ := newTestPlane(t, 3)
	cfg := DefaultConfig(p.URLs())
	cfg.ProbeInterval = time.Minute // dispatch path discovers the death
	cfg.MaxReroutes = 3
	cfg.Client.RetryBackoff = time.Millisecond
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	job := fx.jobs[0]
	owner, ok := routeKey(r, serve.TemplateHash(job))
	if !ok {
		t.Fatal("no owner for the test template")
	}
	for i, url := range p.URLs() {
		if url == owner {
			if err := p.Kill(i); err != nil {
				t.Fatalf("kill: %v", err)
			}
		}
	}
	o := sim.Outcome{WantedSSD: true, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}
	if err := r.Observe(context.Background(), job, 0, o); err != nil {
		t.Fatalf("observe with dead owner: %v", err)
	}
	var landed int64
	for i, url := range p.URLs() {
		if url == owner {
			continue
		}
		landed += p.Node(i).Stats().OutcomeRequests
	}
	if landed != 1 {
		t.Errorf("surviving nodes saw %d outcomes, want 1", landed)
	}
	rs := r.Stats()
	if rs.Outcomes != 1 || rs.Reroutes < 1 || rs.Failovers < 1 {
		t.Errorf("router stats after failover: %+v", rs)
	}
	for _, ns := range r.Nodes() {
		if ns.URL == owner && ns.Healthy {
			t.Error("dead owner still marked healthy after failed observe")
		}
	}
}

// TestRouterObserveSurvivesOwnerRestart pins the one re-send a pooled
// outcome session needs. The owner is killed and restarted between two
// outcomes, with probes out of the picture: the node client's idle
// session died with the old process, which only shows when the second
// outcome is written to it. The client must re-send on a fresh session
// rather than report a failure that would down a healthy node.
func TestRouterObserveSurvivesOwnerRestart(t *testing.T) {
	fx := testFixture(t)
	p, _ := newTestPlane(t, 2)
	cfg := DefaultConfig(p.URLs())
	cfg.ProbeInterval = time.Minute
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	job := fx.jobs[0]
	ownerURL, ok := routeKey(r, serve.TemplateHash(job))
	if !ok {
		t.Fatal("no owner for the test template")
	}
	owner := 0
	if p.URLs()[1] == ownerURL {
		owner = 1
	}
	o := sim.Outcome{WantedSSD: true, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}
	if err := r.Observe(context.Background(), job, 0, o); err != nil {
		t.Fatal(err)
	}
	if err := p.Kill(owner); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if err := p.Restart(owner); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if err := r.Observe(context.Background(), job, 0, o); err != nil {
		t.Fatalf("observe after the owner restarted: %v", err)
	}
	if rs := r.Stats(); rs.Failovers != 0 || rs.Outcomes != 2 {
		t.Errorf("router stats %+v, want 0 failovers and 2 outcomes", rs)
	}
	if got := p.Node(owner).Stats().OutcomeRequests; got != 1 {
		t.Errorf("restarted owner saw %d outcomes, want 1", got)
	}
	if got := p.Node(1 - owner).Stats().OutcomeRequests; got != 0 {
		t.Errorf("the other node saw %d outcomes, want 0", got)
	}
}

// TestRouterReroutesAroundDeadNode kills one node and checks every
// batch still places: dispatches to the dead node fail over to the
// next ring owner with zero caller-visible errors, every decision sits
// at its job's position, and the router marks the node down. A place
// sends its last node batch on the caller's goroutine and the others on
// goroutines of their own, so the table kills each node in turn with its
// batch sent either way: the first batch is ordered so the dead node's
// template comes last (inline) or first (spawned). Afterwards no pooled
// node batch may still hold a decision.
func TestRouterReroutesAroundDeadNode(t *testing.T) {
	fx := testFixture(t)
	for dead := 0; dead < 3; dead++ {
		for _, inline := range []bool{true, false} {
			way := "spawned"
			if inline {
				way = "inline"
			}
			t.Run(fmt.Sprintf("node %d %s", dead, way), func(t *testing.T) {
				rerouteAroundDeadNode(t, fx.jobs[:400], dead, inline)
			})
		}
	}
}

func rerouteAroundDeadNode(t *testing.T, jobs []*trace.Job, dead int, inline bool) {
	p, _ := newTestPlane(t, 3)
	// Probes are pushed out of the picture so the dead node is
	// discovered by the dispatch path itself, not the health loop.
	cfg := DefaultConfig(p.URLs())
	cfg.ProbeInterval = time.Minute
	cfg.MaxReroutes = 3
	cfg.Client.RetryBackoff = time.Millisecond
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	scratches := trackScratch(r)

	// The first batch is two single-job groups, one the dead node owns and
	// one a live node owns, in the order that sends the dead node's batch
	// the requested way; two jobs stay within every node's load bound.
	deadURL := p.URLs()[dead]
	var gone, live *trace.Job
	for _, j := range jobs {
		if owner, _ := routeKey(r, serve.TemplateHash(j)); owner == deadURL {
			gone = cmp.Or(gone, j)
		} else {
			live = cmp.Or(live, j)
		}
	}
	if gone == nil || live == nil {
		t.Fatalf("the jobs' templates do not spread over the dead node %s and the others", deadURL)
	}
	batches := [][]*trace.Job{{gone, live}}
	if inline {
		batches[0] = []*trace.Job{live, gone}
	}
	order := firstAttempt(r, batches[0])
	if i := slices.Index(order, deadURL); len(order) != 2 || i < 0 || (i == 1) != inline {
		t.Fatalf("first batch goes to %q; want the dead node %s and one other, inline %v", order, deadURL, inline)
	}
	for lo := 0; lo < len(jobs); lo += 50 {
		batches = append(batches, jobs[lo:lo+50])
	}

	if err := p.Kill(dead); err != nil {
		t.Fatalf("kill: %v", err)
	}
	placed := 0
	for _, batch := range batches {
		ds, err := r.Place(context.Background(), batch)
		if err != nil {
			t.Fatalf("place at %d with a dead node: %v", placed, err)
		}
		for i, d := range ds {
			if d.JobID != batch[i].ID {
				t.Fatalf("decision %d carries job %q, want %q", placed+i, d.JobID, batch[i].ID)
			}
		}
		placed += len(batch)
	}
	rs := r.Stats()
	if rs.Failovers < 1 || rs.Reroutes < 1 {
		t.Errorf("router recorded %d failovers / %d reroutes against a dead node, want >= 1 each", rs.Failovers, rs.Reroutes)
	}
	if rs.Failures != 0 {
		t.Errorf("router failed %d batches, want 0", rs.Failures)
	}
	for _, ns := range r.Nodes() {
		if ns.URL == deadURL && ns.Healthy {
			t.Error("dead node still marked healthy after failed dispatches")
		}
	}

	// The surviving nodes served everything.
	var total int64
	for i := 0; i < 3; i++ {
		if i != dead {
			total += p.Node(i).Stats().PlaceJobs
		}
	}
	if total != int64(placed) {
		t.Errorf("survivors served %d placements, want %d", total, placed)
	}

	// The decisions buffers were used, and the pool pins no job ID.
	used := false
	for _, sc := range scratches() {
		for url, nb := range sc.byNode {
			used = used || cap(nb.ds) > 0
			for i, d := range nb.ds[:cap(nb.ds)] {
				if d != (wire.Decision{}) {
					t.Fatalf("pooled batch for %s still holds decision %d: %+v", url, i, d)
				}
			}
		}
	}
	if !used {
		t.Error("no pooled node batch has a decisions buffer")
	}
}

// trackScratch makes r's scratch pool record every routing scratch it
// creates, and returns them on demand: sync.Pool may drop a scratch, so
// the record is what a test inspects after Place.
func trackScratch(r *Router) func() []*routeScratch {
	var mu sync.Mutex
	var made []*routeScratch
	newScratch := r.scratch.New
	r.scratch.New = func() any {
		sc := newScratch()
		mu.Lock()
		made = append(made, sc.(*routeScratch))
		mu.Unlock()
		return sc
	}
	return func() []*routeScratch {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(made)
	}
}

// firstAttempt returns the node names a place of jobs would dispatch to
// first, in dispatch order (the last goes out on the caller's
// goroutine), without placing anything: it runs the router's own
// grouping and assignment, then hands back the load assignment counts.
func firstAttempt(r *Router, jobs []*trace.Job) []string {
	sc := &routeScratch{byKey: map[uint32]int{}, byNode: map[string]*nodeBatch{}}
	order, err := r.assign(sc, sc.groupByTemplate(jobs), nil)
	if err != nil {
		return nil
	}
	names := make([]string, len(order))
	for i, nb := range order {
		names[i] = nb.name
		n := r.nodes[nb.name]
		n.mu.Lock()
		n.inflight -= int64(len(nb.indices))
		n.mu.Unlock()
	}
	return names
}

// TestRouterProbeRecovery checks the health loop end to end: a killed
// node goes unhealthy via probing (not just dispatch failures), a
// restarted node re-enters at reduced weight and ramps back to full.
func TestRouterProbeRecovery(t *testing.T) {
	p, _ := newTestPlane(t, 2)
	r := newTestRouter(t, p)
	url := p.URLs()[0]

	state := func() (NodeState, bool) {
		for _, ns := range r.Nodes() {
			if ns.URL == url {
				return ns, true
			}
		}
		return NodeState{}, false
	}

	if err := p.Kill(0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "probe to mark the killed node down", func() bool {
		ns, ok := state()
		return ok && !ns.Healthy
	})

	if err := p.Restart(0); err != nil {
		t.Fatalf("restart: %v", err)
	}
	var reentry float64
	waitFor(t, 5*time.Second, "probe to readmit the restarted node", func() bool {
		ns, ok := state()
		if ok && ns.Healthy {
			reentry = ns.Weight
			return true
		}
		return false
	})
	if reentry > 0.5 {
		t.Errorf("restarted node re-entered at weight %.2f, want a reduced ramp-in", reentry)
	}
	waitFor(t, 5*time.Second, "weight to ramp back to full", func() bool {
		ns, _ := state()
		return ns.Weight == 1
	})
	if rs := r.Stats(); rs.Probes == 0 || rs.ProbeFailures == 0 {
		t.Errorf("probe counters %+v, want both probes and failures > 0", rs)
	}
}

// TestRouterClientFaultIsFinal pins who is blamed for a request that is
// itself wrong: the caller, not the node that said so. The refusal
// comes back as it is, both nodes stay healthy, nothing fails over or
// reroutes (the next owner would only be handed the same garbage), and
// the template's next valid request still lands on its original owner.
func TestRouterClientFaultIsFinal(t *testing.T) {
	fx := testFixture(t)
	job := fx.jobs[0]
	invalid := *job
	invalid.LifetimeSec = -1 // fails trace.Job.Validate
	good := sim.Outcome{WantedSSD: true, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}
	bad := good
	bad.FracOnSSD = 1.5 // fails wire.OutcomeRequest.Validate on the daemon

	for _, tc := range []struct {
		name  string
		codec string
		fault func(r *Router) error
		valid func(r *Router) error
		// landed reads how many valid requests a node has served.
		landed func(s rpc.DaemonStats) int64
	}{
		{
			// The JSON client posts outcomes as they are; the daemon validates.
			name:   "outcome out of range, refused by the daemon",
			codec:  rpc.CodecJSON,
			fault:  func(r *Router) error { return r.Observe(context.Background(), job, 0, bad) },
			valid:  func(r *Router) error { return r.Observe(context.Background(), job, 0, good) },
			landed: func(s rpc.DaemonStats) int64 { return s.OutcomeRequests },
		},
		{
			// The binary client validates before it encodes the frame.
			name:   "outcome out of range, refused by the node client",
			codec:  rpc.CodecBinary,
			fault:  func(r *Router) error { return r.Observe(context.Background(), job, 0, bad) },
			valid:  func(r *Router) error { return r.Observe(context.Background(), job, 0, good) },
			landed: func(s rpc.DaemonStats) int64 { return s.OutcomeRequests },
		},
		{
			// The JSON client sends jobs as they are; the daemon validates.
			name:  "invalid job, refused by the daemon",
			codec: rpc.CodecJSON,
			fault: func(r *Router) error {
				_, err := r.Place(context.Background(), []*trace.Job{job, &invalid})
				return err
			},
			valid:  func(r *Router) error { _, err := r.Place(context.Background(), []*trace.Job{job}); return err },
			landed: func(s rpc.DaemonStats) int64 { return s.PlaceJobs },
		},
		{
			// The binary client validates while it bins, before sending.
			name:  "invalid job, refused by the node client",
			codec: rpc.CodecBinary,
			fault: func(r *Router) error {
				_, err := r.Place(context.Background(), []*trace.Job{job, &invalid})
				return err
			},
			valid:  func(r *Router) error { _, err := r.Place(context.Background(), []*trace.Job{job}); return err },
			landed: func(s rpc.DaemonStats) int64 { return s.PlaceJobs },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, _ := newTestPlane(t, 2)
			cfg := DefaultConfig(p.URLs())
			cfg.ProbeInterval = time.Minute // a wrongly downed node must stay visibly down
			cfg.Client.Codec = tc.codec
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(r.Close)
			owner, ok := routeKey(r, serve.TemplateHash(job))
			if !ok {
				t.Fatal("no owner for the test template")
			}

			err = tc.fault(r)
			var refused *rpc.Error
			if !errors.As(err, &refused) || refused.Code != wire.ErrCodeBadRequest {
				t.Fatalf("faulty request surfaced %v, want an *rpc.Error with the bad-request code", err)
			}
			for _, ns := range r.Nodes() {
				if !ns.Healthy {
					t.Errorf("node %s downed by a client fault", ns.URL)
				}
			}
			if rs := r.Stats(); rs.Failovers != 0 || rs.Reroutes != 0 {
				t.Errorf("client fault recorded %d failovers / %d reroutes, want 0 / 0", rs.Failovers, rs.Reroutes)
			}

			if err := tc.valid(r); err != nil {
				t.Fatalf("valid request after the fault: %v", err)
			}
			for i, url := range p.URLs() {
				want := int64(0)
				if url == owner {
					want = 1
				}
				if got := tc.landed(p.Node(i).Stats()); got != want {
					t.Errorf("node %s served %d valid requests, want %d (owner is %s)", url, got, want, owner)
				}
			}
		})
	}
}

// TestRouterPlaceSurvivesNodeRestart is TestRouterObserveSurvivesOwnerRestart
// for places, which ride the same pooled sessions: a node is killed and
// restarted between two batches with probes out of the picture, so each
// session its node client parked died with the old process and shows it
// only on the next write. That must cost a re-send on a fresh session, not
// a failover. The decisions are the ones a JSON client of its own gets
// from a fresh daemon, in everything a place decides from the
// job alone (Admit is the controller's, and the restarted node's
// controller started over).
func TestRouterPlaceSurvivesNodeRestart(t *testing.T) {
	fx := testFixture(t)
	p, _ := newTestPlane(t, 2)
	cfg := DefaultConfig(p.URLs())
	cfg.ProbeInterval = time.Minute
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	ctx := context.Background()
	jobs := fx.jobs[:64]

	if _, err := r.Place(ctx, jobs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if p.Node(i).Stats().StreamSessions == 0 {
			t.Fatalf("node %d holds no session after the first batch; the restart would test nothing", i)
		}
		if err := p.Kill(i); err != nil {
			t.Fatalf("kill %d: %v", i, err)
		}
		if err := p.Restart(i); err != nil {
			t.Fatalf("restart %d: %v", i, err)
		}
	}
	got, err := r.Place(ctx, jobs)
	if err != nil {
		t.Fatalf("place after the nodes restarted: %v", err)
	}
	if rs := r.Stats(); rs.Failovers != 0 || rs.Reroutes != 0 || rs.Failures != 0 {
		t.Errorf("router stats %+v, want no failover, reroute or failure", rs)
	}

	d, err := rpc.NewDaemon(fx.newSource(t), srcWorkload, fx.cm, testDaemonConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	c, err := rpc.NewClient(rpc.DefaultClientConfig(d.BaseURL()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want, err := c.Place(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		g, w := got[i], want[i]
		g.Admit, w.Admit = false, false
		if g != w {
			t.Fatalf("decision %d = %+v, a fresh JSON place says %+v", i, got[i], want[i])
		}
	}
}

// varzInt reads one integer line off a daemon's /varz.
func varzInt(t *testing.T, baseURL, key string) int64 {
	t.Helper()
	resp, err := http.Get(baseURL + wire.PathVarz)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+" "); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("/varz line %q: %v", sc.Text(), err)
			}
			return v
		}
	}
	t.Fatalf("/varz has no %s line", key)
	return 0
}

// TestRouterSessionsStayPooled pins the idle-session cap against the
// traffic it has to hold: more concurrent routed places than the 16
// sessions overlapping outcomes once needed. A session over the cap is
// closed when it comes back and dialled again by the next caller, which
// the node counts: every session it ever accepted must still be open, and
// there are never more of them than callers.
func TestRouterSessionsStayPooled(t *testing.T) {
	fx := testFixture(t)
	p, _ := newTestPlane(t, 1)
	cfg := DefaultConfig(p.URLs())
	cfg.ProbeInterval = time.Minute
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	const workers, rounds, chunk = 48, 50, 4
	lap := func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					lo := (w*rounds + i) * chunk % (len(fx.jobs) - chunk)
					if _, err := r.Place(context.Background(), fx.jobs[lo:lo+chunk]); err != nil {
						t.Errorf("worker %d round %d: %v", w, i, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	url := p.URLs()[0]
	for n := 1; n <= 2; n++ {
		lap()
		opened, open := varzInt(t, url, "rpc_stream_sessions"), varzInt(t, url, "rpc_stream_sessions_open")
		t.Logf("lap %d: %d sessions opened, %d open", n, opened, open)
		if opened > workers || open != opened {
			t.Errorf("lap %d: the node accepted %d sessions and holds %d, want the same number and at most %d: sessions are being dropped and dialled again",
				n, opened, open, workers)
		}
	}
	if rs := r.Stats(); rs.Failures != 0 || rs.Failovers != 0 {
		t.Errorf("router stats %+v, want no failure or failover", rs)
	}
}

// TestDispatchLeavesNoCallerState routes one batch over 2- and 3-node
// planes through a pooled scratch, every node batch but the last on a
// goroutine of its own, and checks what the pool keeps afterwards: no
// node batch holds the call's context, jobs or output, and no sub-batch
// holds a job, so a pooled scratch keeps nothing of a finished call
// alive.
func TestDispatchLeavesNoCallerState(t *testing.T) {
	fx := testFixture(t)
	jobs := fx.jobs[:64]
	for _, nodes := range []int{2, 3} {
		t.Run(fmt.Sprintf("%dnodes", nodes), func(t *testing.T) {
			p, _ := newTestPlane(t, nodes)
			r := newTestRouter(t, p)
			sc := r.scratch.Get().(*routeScratch)
			batches, err := r.assign(sc, sc.groupByTemplate(jobs), nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(batches) != nodes {
				t.Fatalf("%d node batches over %d nodes, want one per node", len(batches), nodes)
			}
			out := make([]wire.Decision, len(jobs))
			if failed := r.dispatch(context.Background(), sc, jobs, out, batches); len(failed) != 0 {
				t.Fatalf("%d node batches failed: %v", len(failed), failed[0].err)
			}
			for i, d := range out {
				if d.JobID != jobs[i].ID {
					t.Fatalf("decision %d is for job %q, want %q", i, d.JobID, jobs[i].ID)
				}
			}
			for name, nb := range sc.byNode {
				if nb.ctx != nil || nb.jobs != nil || nb.out != nil {
					t.Errorf("node %s: batch keeps the call's state (ctx %v, %d jobs, %d decisions)",
						name, nb.ctx, len(nb.jobs), len(nb.out))
				}
				for i, j := range nb.sub[:cap(nb.sub)] {
					if j != nil {
						t.Errorf("node %s: sub-batch slot %d keeps job %s", name, i, j.ID)
					}
				}
			}
		})
	}
}

// TestRouterTracedPlace follows one sampled batch across the tiers now
// that no HTTP request carries it: the caller's trace gains a
// router.dispatch span per node, and each node files its own spans, the
// stream shell's rpc.place.stream among them, under the same ID, which
// rode the place frame.
func TestRouterTracedPlace(t *testing.T) {
	fx := testFixture(t)
	p, _ := newTestPlane(t, 2)
	r := newTestRouter(t, p)
	front := obs.NewTracer("front", 1, 16)
	b := front.Begin(0)
	id := b.ID()
	if _, err := r.Place(obs.WithTrace(context.Background(), b), fx.jobs[:64]); err != nil {
		t.Fatal(err)
	}
	b.Finish()

	spans := func(traces []obs.Trace, stage string) (n int) {
		for _, tr := range traces {
			if tr.ID != id {
				continue
			}
			for _, s := range tr.Spans {
				if s.Stage == stage {
					n++
				}
			}
		}
		return n
	}
	dispatched := spans(front.Snapshot(), "router.dispatch")
	if dispatched == 0 {
		t.Fatal("the caller's trace has no router.dispatch span")
	}
	served := 0
	for i := 0; i < 2; i++ {
		served += spans(p.Node(i).Tracer().Snapshot(), "rpc.place.stream")
	}
	if served != dispatched {
		t.Errorf("%d dispatches but %d rpc.place.stream spans under trace %016x on the nodes", dispatched, served, id)
	}
}

// TestNodeEntries runs -nodes lists through ParseNodes and New: a
// "name=" prefix survives the http:// defaulting and names the ring
// member while the router dials the URL after it, a bare entry is its
// own name, and an empty name or two entries that resolve to one
// member, named or not, are refused.
func TestNodeEntries(t *testing.T) {
	for _, tc := range []struct {
		list    string
		entries []string
		members []string // the ring's members, sorted; nil when New refuses
	}{
		{"a=127.0.0.1:7070", []string{"a=http://127.0.0.1:7070"}, []string{"a"}},
		{"a=http://127.0.0.1:7070", []string{"a=http://127.0.0.1:7070"}, []string{"a"}},
		{"127.0.0.1:7070", []string{"http://127.0.0.1:7070"}, []string{"http://127.0.0.1:7070"}},
		{"b=127.0.0.1:7071, 127.0.0.1:7070", []string{"b=http://127.0.0.1:7071", "http://127.0.0.1:7070"},
			[]string{"b", "http://127.0.0.1:7070"}},
		{"=127.0.0.1:7070", []string{"=http://127.0.0.1:7070"}, nil},
		{"a=127.0.0.1:7070,a=127.0.0.1:7071", []string{"a=http://127.0.0.1:7070", "a=http://127.0.0.1:7071"}, nil},
		{"127.0.0.1:7070,http://127.0.0.1:7070", []string{"http://127.0.0.1:7070", "http://127.0.0.1:7070"}, nil},
		{"http://127.0.0.1:7070=127.0.0.1:7071,127.0.0.1:7070",
			[]string{"http://127.0.0.1:7070=http://127.0.0.1:7071", "http://127.0.0.1:7070"}, nil},
	} {
		entries, err := ParseNodes(tc.list)
		if err != nil || !slices.Equal(entries, tc.entries) {
			t.Errorf("ParseNodes(%q) = %q, %v; want %q", tc.list, entries, err, tc.entries)
			continue
		}
		r, err := New(DefaultConfig(entries))
		if tc.members == nil {
			if err == nil {
				r.Close()
				t.Errorf("New accepted %q", entries)
			}
			continue
		}
		if err != nil {
			t.Errorf("New(%q): %v", entries, err)
			continue
		}
		owners := map[string]bool{}
		for key := uint32(0); key < 1000; key++ {
			owner, _ := routeKey(r, key)
			owners[owner] = true
		}
		var urls []string
		for _, ns := range r.Nodes() {
			urls = append(urls, ns.URL)
		}
		r.Close()
		members := slices.Sorted(maps.Keys(owners))
		var wantURLs []string
		for _, e := range entries {
			_, url := SplitNode(e)
			wantURLs = append(wantURLs, url)
		}
		slices.Sort(wantURLs)
		if !slices.Equal(members, tc.members) || !slices.Equal(urls, wantURLs) {
			t.Errorf("New(%q) routes to %q and dials %q, want %q and %q", entries, members, urls, tc.members, wantURLs)
		}
	}
}

// TestNamedOwnershipIgnoresURLs: routers over the same node names deal
// every template to the same name wherever the nodes listen, and that
// name is the one a bare ring over the names picks.
func TestNamedOwnershipIgnoresURLs(t *testing.T) {
	a, err := New(DefaultConfig([]string{"0=http://127.0.0.1:40001", "1=http://127.0.0.1:40002", "2=http://127.0.0.1:40003"}))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(DefaultConfig([]string{"2=http://10.0.0.7:7070", "0=http://10.0.0.8:7070", "1=http://10.0.0.9:7070"}))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ring := NewRing(1)
	ring.SetMembers([]string{"0", "1", "2"})
	for key := uint32(0); key < 1000; key++ {
		want, _ := ring.Route(uint64(key), nil)
		if ga, _ := routeKey(a, key); ga != want {
			t.Fatalf("key %d: router a routes to %q, the bare ring to %q", key, ga, want)
		}
		if gb, _ := routeKey(b, key); gb != want {
			t.Fatalf("key %d: router b routes to %q, the bare ring to %q", key, gb, want)
		}
	}
}
