package scenario

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/golden"
	"repro/internal/online"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/router"
	"repro/internal/rpc"
	"repro/internal/rpc/wire"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// layer is one side of the decision seam a replay can drive. start
// stands it up over the env's model at its default configuration and
// returns the placer with the teardown that closes everything it
// started. nodes is how many Algorithm 1 controllers the layer runs:
// its reference is the split simulation over that many ring owners,
// which for one node is the simulator itself.
type layer struct {
	name  string
	nodes int
	start func(t *testing.T, spec *Spec, e *env) (online.Placer, func())
}

// layers is every seam TestServeMatchesSim replays: the in-process
// server through Submit, one call per job, and through SubmitBatch, a
// client on each codec to an in-process daemon, and the router over
// planes of 1, 2 and 3 named nodes.
var layers = []layer{
	{"serve-1", 1, serveLayer(func(srv *serve.Server) online.Placer { return &submitOne{srv: srv} })},
	{"serve-default", 1, serveLayer(online.Local)},
	{"rpc-binary", 1, clientLayer(rpc.CodecBinary)},
	{"rpc-json", 1, clientLayer(rpc.CodecJSON)},
	{"router-1node", 1, routerLayer(1)},
	{"router-2node", 2, routerLayer(2)},
	{"router-3node", 3, routerLayer(3)},
}

// publish returns a registry holding the env's model as v1 of the
// scenario's workload.
func publish(t *testing.T, spec *Spec, e *env) *registry.Registry {
	t.Helper()
	reg := registry.New()
	if _, err := reg.Publish(spec.Name, e.model, 0); err != nil {
		t.Fatal(err)
	}
	return reg
}

// serveLayer stands up an in-process server at the default
// configuration and places on it through placer.
func serveLayer(placer func(*serve.Server) online.Placer) func(*testing.T, *Spec, *env) (online.Placer, func()) {
	return func(t *testing.T, spec *Spec, e *env) (online.Placer, func()) {
		srv, err := serve.New(publish(t, spec, e), spec.Name, e.cm, serve.DefaultConfig(e.model.NumCategories()))
		if err != nil {
			t.Fatal(err)
		}
		return placer(srv), func() { srv.Close() }
	}
}

// submitOne places through Server.Submit, the single-job entry point,
// where online.Local places through SubmitBatch.
type submitOne struct {
	srv *serve.Server
	dec []wire.Decision
}

func (p *submitOne) Place(_ context.Context, jobs []*trace.Job) ([]wire.Decision, error) {
	p.dec = p.dec[:0]
	for _, j := range jobs {
		d, err := p.srv.Submit(j)
		if err != nil {
			return nil, err
		}
		p.dec = append(p.dec, wire.Decision{JobID: j.ID, Admit: d.Admit, Category: d.Category, ModelVersion: d.ModelVersion, Shard: d.Shard})
	}
	return p.dec, nil
}

func (p *submitOne) Observe(_ context.Context, j *trace.Job, _ int, o sim.Outcome) error {
	return p.srv.Observe(j, o)
}

// startDaemon serves reg's model for the scenario's workload from an
// in-process daemon on a loopback port. A non-nil learner sits behind
// the daemon's /v1/outcome.
func startDaemon(t *testing.T, spec *Spec, e *env, reg *registry.Registry, learner *online.Learner) *rpc.Daemon {
	t.Helper()
	dcfg := rpc.DefaultConfig(e.model.NumCategories())
	dcfg.Learner = learner
	d, err := rpc.NewDaemon(reg, spec.Name, e.cm, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return d
}

// shutdown drains a daemon, failing the test if it does not drain.
func shutdown(t *testing.T, d *rpc.Daemon) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Errorf("daemon shutdown: %v", err)
	}
}

// dial opens a client on codec to d; stop closes it and drains d.
func dial(t *testing.T, d *rpc.Daemon, codec string) (c *rpc.Client, stop func()) {
	t.Helper()
	ccfg := rpc.DefaultClientConfig(d.BaseURL())
	ccfg.Codec = codec
	c, err := rpc.NewClient(ccfg)
	if err != nil {
		shutdown(t, d)
		t.Fatal(err)
	}
	return c, func() { c.Close(); shutdown(t, d) }
}

func clientLayer(codec string) func(*testing.T, *Spec, *env) (online.Placer, func()) {
	return func(t *testing.T, spec *Spec, e *env) (online.Placer, func()) {
		return dial(t, startDaemon(t, spec, e, publish(t, spec, e), nil), codec)
	}
}

// onlineLayers are the closed-loop legs: a client on each codec to an
// in-process daemon whose learner sits behind /v1/outcome and publishes
// into the daemon's own registry, as placementd -online runs it.
var onlineLayers = []struct{ name, codec string }{
	{"rpc-binary-online", rpc.CodecBinary},
	{"rpc-json-online", rpc.CodecJSON},
}

// newLearner builds the scenario's learner on reg, from the spec's
// onlineConfig as runOnline does, and returns it with the list its
// retrain events are appended to.
func newLearner(t *testing.T, spec *Spec, e *env, reg *registry.Registry) (*online.Learner, *eventLog) {
	t.Helper()
	events := &eventLog{}
	lcfg := spec.onlineConfig()
	lcfg.OnEvent = events.add
	learner, err := online.New(reg, spec.Name, e.cm, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	return learner, events
}

// eventLog collects a learner's retrain events; on a daemon they arrive
// on its handler goroutines.
type eventLog struct {
	mu     sync.Mutex
	events []online.Event
}

func (l *eventLog) add(ev online.Event) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *eventLog) list() []online.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]online.Event(nil), l.events...)
}

// localOnline is runOnline's in-process loop: the served model, its
// controllers and a synchronous learner fed by the replay itself.
func localOnline(t *testing.T, spec *Spec, e *env, cfg sim.Config) (*sim.Result, []online.Event) {
	t.Helper()
	reg, srv, err := newServer(spec, e)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	learner, events := newLearner(t, spec, e, reg)
	defer learner.Close()
	res, err := online.RunLoop(e.test, online.Local(srv), learner, e.cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, events.list()
}

// daemonOnline replays the same loop through a client on codec, with
// the learner behind the daemon: the replay itself feeds no learner.
func daemonOnline(t *testing.T, spec *Spec, e *env, cfg sim.Config, codec string) (*sim.Result, []online.Event) {
	t.Helper()
	reg := publish(t, spec, e)
	learner, events := newLearner(t, spec, e, reg)
	defer learner.Close()
	c, stop := dial(t, startDaemon(t, spec, e, reg, learner), codec)
	res, err := online.RunLoop(e.test, c, nil, e.cm, cfg)
	stop()
	if err != nil {
		t.Fatal(err)
	}
	return res, events.list()
}

func routerLayer(nodes int) func(*testing.T, *Spec, *env) (online.Placer, func()) {
	return func(t *testing.T, spec *Spec, e *env) (online.Placer, func()) {
		plane, err := router.NewPlane(publish(t, spec, e), spec.Name, e.cm, rpc.DefaultConfig(e.model.NumCategories()), nodes)
		if err != nil {
			t.Fatal(err)
		}
		r, err := router.New(router.DefaultConfig(plane.Members()))
		if err != nil {
			plane.Close()
			t.Fatal(err)
		}
		return r, func() { r.Close(); plane.Close() }
	}
}

// split is the multi-node reference: one Algorithm 1 ranking policy per
// node of a plane named 0…n-1, each placing and observing only the jobs
// whose template the router's default ring (seed 1, 64 replicas) deals
// to that name. A routed plane decides what it does, because one job
// per Place never trips the bounded-load spill.
type split struct {
	ring   *router.Ring
	owners map[string]*policy.AdaptiveRanking
}

// splitSim replays the env's test trace under a split over nodes ring
// owners.
func splitSim(t *testing.T, e *env, cfg sim.Config, nodes int) *sim.Result {
	t.Helper()
	s := &split{ring: router.NewRing(1), owners: map[string]*policy.AdaptiveRanking{}}
	names := make([]string, nodes)
	for i := range names {
		names[i] = strconv.Itoa(i)
		p, err := policy.NewAdaptiveRanking(e.model, e.cm, core.DefaultAdaptiveConfig(e.model.NumCategories()))
		if err != nil {
			t.Fatal(err)
		}
		s.owners[names[i]] = p
	}
	s.ring.SetMembers(names)
	res, err := sim.Run(e.test, s, e.cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func (s *split) owner(j *trace.Job) *policy.AdaptiveRanking {
	m, _ := s.ring.Route(uint64(trace.TemplateHash(j.Pipeline, j.Step)), nil)
	return s.owners[m]
}

func (s *split) Name() string                                  { return "Split" }
func (s *split) Place(j *trace.Job, ctx sim.PlaceContext) bool { return s.owner(j).Place(j, ctx) }
func (s *split) Observe(j *trace.Job, o sim.Outcome)           { s.owner(j).Observe(j, o) }

// TestServeMatchesSim is the whole-scenario differential across the
// decision seam: on every checked-in scenario's trace and model, each
// layer's replay decides every job as the simulator's Algorithm 1
// ranking policy does, split over the plane's ring owners when the
// layer has more than one node, and lands on bit-equal TCO and TCIO.
// The serving entry point, the codec and the router are transports; a
// decision that moved with any of them would fail here. A
// multi-node leg runs twice, on two planes with other ports, because
// ownership must follow the node names and nothing else. The online
// legs hold a daemon with its learner behind /v1/outcome to runOnline's
// in-process loop: the same decisions, TCO and TCIO, and the same
// retrain events, so the learner sees over the wire what it sees in
// process. Every goroutine a layer starts is gone once the table has
// run.
func TestServeMatchesSim(t *testing.T) {
	pkgs, err := Discover(repoScenarios)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for _, pkg := range pkgs {
		spec := pkg.Spec
		if spec.Trace == nil || (testing.Short() && !shortSubset.MatchString(pkg.Name)) {
			continue // a fleet spec generates its clusters' traces itself
		}
		t.Run(pkg.Name, func(t *testing.T) {
			e, err := buildEnv(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.Config{SSDQuota: e.quota, KeepRecords: true}
			ranking, err := policy.NewAdaptiveRanking(e.model, e.cm, core.DefaultAdaptiveConfig(e.model.NumCategories()))
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.Run(e.test, ranking, e.cm, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Records) != len(e.test.Jobs) {
				t.Fatalf("sim kept %d records of %d jobs", len(want.Records), len(e.test.Jobs))
			}
			refs := map[int]*sim.Result{1: want}
			for _, l := range layers {
				t.Run(l.name, func(t *testing.T) {
					ref := refs[l.nodes]
					if ref == nil {
						ref = splitSim(t, e, cfg, l.nodes)
						refs[l.nodes] = ref
					}
					runs := 1
					if l.nodes > 1 {
						runs = 2 // a second plane listens on other ports
					}
					for range runs {
						p, stop := l.start(t, spec, e)
						got, err := online.RunLoop(e.test, p, nil, e.cm, cfg)
						stop()
						if err != nil {
							t.Fatal(err)
						}
						sameDecisions(t, got, ref)
					}
				})
			}
			wantOnline, wantEvents := localOnline(t, spec, e, cfg)
			for _, l := range onlineLayers {
				t.Run(l.name, func(t *testing.T) {
					got, events := daemonOnline(t, spec, e, cfg, l.codec)
					sameDecisions(t, got, wantOnline)
					sameEvents(t, events, wantEvents)
				})
			}
		})
	}
	waitGoroutines(t, before)
}

// sameDecisions fails unless got admits exactly the jobs want does and
// lands on bit-equal TCO and TCIO.
func sameDecisions(t *testing.T, got, want *sim.Result) {
	t.Helper()
	if len(got.Records) != len(want.Records) {
		t.Fatalf("replay kept %d records, sim %d", len(got.Records), len(want.Records))
	}
	gotWanted, wantWanted, first := 0, 0, -1
	for i := range want.Records {
		g, w := got.Records[i].Outcome.WantedSSD, want.Records[i].Outcome.WantedSSD
		if g {
			gotWanted++
		}
		if w {
			wantWanted++
		}
		if g != w && first < 0 {
			first = i
		}
	}
	if first >= 0 {
		t.Errorf("admits %d of %d jobs, sim %d; first differing job %d",
			gotWanted, len(want.Records), wantWanted, first)
	}
	if got.TCOSavingsPercent() != want.TCOSavingsPercent() || got.TCIOSavingsPercent() != want.TCIOSavingsPercent() {
		t.Errorf("TCO %v%% TCIO %v%%, sim %v%% %v%%",
			got.TCOSavingsPercent(), got.TCIOSavingsPercent(), want.TCOSavingsPercent(), want.TCIOSavingsPercent())
	}
}

// sameEvents fails unless got lists the retrains want does: the same
// virtual time, trigger, window sizes, shadow scores, verdict and
// published version, or the same error. Only the wall-clock latency
// may differ.
func sameEvents(t *testing.T, got, want []online.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d retrains, in-process loop %d:\n%+v\n%+v", len(got), len(want), got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if (g.Err == nil) != (w.Err == nil) || g.Err != nil && g.Err.Error() != w.Err.Error() {
			t.Errorf("retrain %d: error %v, in-process loop %v", i, g.Err, w.Err)
		}
		g.Err, w.Err, g.Latency, w.Latency = nil, nil, 0, 0
		if g != w {
			t.Errorf("retrain %d: %+v, in-process loop %+v", i, g, w)
		}
	}
}

// waitGoroutines fails unless the goroutine count falls back to before
// within a grace window: shard workers, stream sessions and connection
// loops wind down asynchronously after their owners close.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines: %d before the layer table, %d after", before, after)
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSplitCost pins what splitting Algorithm 1 over a plane costs: the
// TCO savings on each trace-driven scenario with one controller and
// with one per owner of a ring over 2, 3 and 4 named nodes, and the
// points the 2-node split loses against one controller (negative when
// it gains). A routed plane of named nodes decides what the split
// decides (TestServeMatchesSim), so these are its numbers.
func TestSplitCost(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every trace-driven scenario's model")
	}
	pkgs, err := Discover(repoScenarios)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-15s %12s %8s %8s %8s %10s\n", "scenario", "1 controller", "2 named", "3 named", "4 named", "cost at 2")
	for _, pkg := range pkgs {
		if pkg.Spec.Trace == nil {
			continue
		}
		e, err := buildEnv(pkg.Spec)
		if err != nil {
			t.Fatal(err)
		}
		var tco [5]float64
		for n := 1; n <= 4; n++ {
			tco[n] = splitSim(t, e, sim.Config{SSDQuota: e.quota}, n).TCOSavingsPercent()
		}
		fmt.Fprintf(&b, "%-15s %12.3f %8.3f %8.3f %8.3f %+10.3f\n", pkg.Name, tco[1], tco[2], tco[3], tco[4], tco[1]-tco[2])
	}
	golden.Check(t, "testdata/split.golden", b.Bytes())
}
