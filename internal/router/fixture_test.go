package router

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/registry"
	"repro/internal/rpc"
	"repro/internal/trace"
)

const testCategories = 4

// srcWorkload is the source-registry workload every plane test
// replicates from.
const srcWorkload = "model"

// fixture bundles the shared plane test environment: a small trained
// model and a stream of held-out jobs, shared read-only across tests.
type fixture struct {
	cm    *cost.Model
	model *core.CategoryModel
	jobs  []*trace.Job
}

var (
	fixtureOnce sync.Once
	fixtureVal  fixture
)

// testFixture trains one small category model and caches it for all
// tests (training dominates test runtime otherwise).
func testFixture(t testing.TB) fixture {
	t.Helper()
	fixtureOnce.Do(func() {
		cfg := trace.DefaultGeneratorConfig("router-test", 23)
		cfg.DurationSec = 4 * 24 * 3600
		cfg.NumUsers = 8
		tr := trace.NewGenerator(cfg).Generate()
		train, test := tr.SplitAt(tr.Duration() / 2)
		cm := cost.Default()
		opts := core.DefaultTrainOptions()
		opts.NumCategories = testCategories
		opts.GBDT.NumRounds = 5
		opts.GBDT.MaxDepth = 4
		model, err := core.TrainCategoryModel(train.Jobs, cm, opts)
		if err != nil {
			panic(err)
		}
		fixtureVal = fixture{cm: cm, model: model, jobs: test.Jobs}
	})
	if fixtureVal.model == nil {
		t.Fatal("fixture setup failed")
	}
	return fixtureVal
}

// newSource publishes the fixture model as version 1 of the source
// workload in a fresh registry.
func (fx fixture) newSource(t testing.TB) *registry.Registry {
	t.Helper()
	src := registry.New()
	if _, err := src.Publish(srcWorkload, fx.model, 0); err != nil {
		t.Fatal(err)
	}
	return src
}

// testDaemonConfig returns the per-node daemon parameters.
func testDaemonConfig() rpc.Config { return rpc.DefaultConfig(testCategories) }

// newTestPlane starts an n-node plane over a fresh source registry,
// torn down when the test ends.
func newTestPlane(t testing.TB, n int) (*Plane, *registry.Registry) {
	t.Helper()
	fx := testFixture(t)
	src := fx.newSource(t)
	p, err := NewPlane(src, srcWorkload, fx.cm, testDaemonConfig(), n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p, src
}

// newTestRouter builds a router over the plane with fast probes and
// quick client retries.
func newTestRouter(t testing.TB, p *Plane) *Router {
	t.Helper()
	cfg := DefaultConfig(p.URLs())
	cfg.ProbeInterval = 25 * time.Millisecond
	cfg.MaxReroutes = 3
	cfg.Client.RetryBackoff = time.Millisecond
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// waitFor polls cond up to timeout.
func waitFor(t testing.TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %s waiting for %s", timeout, what)
}
