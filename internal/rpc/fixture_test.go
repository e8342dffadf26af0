package rpc

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/registry"
	"repro/internal/trace"
)

const testCategories = 5

// fixture bundles the shared daemon test environment: a small trained
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
		cfg := trace.DefaultGeneratorConfig("rpc-test", 17)
		cfg.DurationSec = 2 * 24 * 3600
		cfg.NumUsers = 6
		tr := trace.NewGenerator(cfg).Generate()
		train, test := tr.SplitAt(tr.Duration() / 2)
		cm := cost.Default()
		opts := core.DefaultTrainOptions()
		opts.NumCategories = testCategories
		opts.GBDT.NumRounds = 6
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

// newRegistry publishes the fixture model as version 1 of workload "w"
// in a fresh registry.
func (fx fixture) newRegistry(t testing.TB) *registry.Registry {
	t.Helper()
	reg := registry.New()
	if _, err := reg.Publish("w", fx.model, 0); err != nil {
		t.Fatal(err)
	}
	return reg
}

// testConfig returns the daemon parameters the tests start from.
func testConfig() Config { return DefaultConfig(testCategories) }

// startDaemon builds and starts a daemon on a loopback port, tearing it
// down (with a drain deadline) when the test ends.
func startDaemon(t testing.TB, reg *registry.Registry, cfg Config) *Daemon {
	t.Helper()
	fx := testFixture(t)
	d, err := NewDaemon(reg, "w", fx.cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start("127.0.0.1:0"); err != nil {
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

// newTestClient builds a client for d with quick retries.
func newTestClient(t testing.TB, d *Daemon) *Client {
	t.Helper()
	cfg := DefaultClientConfig(d.BaseURL())
	cfg.RetryBackoff = time.Millisecond
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}
