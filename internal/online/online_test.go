package online

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/gbdt"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

const testCategories = 6

// e2eFixture bundles the shared drift scenario: a spliced trace whose
// mix changes at SpliceSec and a model trained on the pre-drift
// segment only (the model that must go stale).
type e2eFixture struct {
	sc    *experiments.DriftScenario
	model *core.CategoryModel
	cm    *cost.Model
}

var (
	e2eOnce sync.Once
	e2eVal  e2eFixture
)

func e2eOpts() experiments.Options {
	return experiments.Options{
		Seed:          1,
		Days:          4,
		Users:         8,
		GBDTRounds:    5,
		NumCategories: testCategories,
	}
}

func testFixture(t *testing.T) e2eFixture {
	t.Helper()
	e2eOnce.Do(func() {
		opts := e2eOpts()
		sc, err := experiments.BuildDriftScenario(opts)
		if err != nil {
			panic(err)
		}
		model, err := experiments.TrainModelOn(sc.Pre.Train.Jobs, sc.Pre.Cost, opts)
		if err != nil {
			panic(err)
		}
		e2eVal = e2eFixture{sc: sc, model: model, cm: sc.Pre.Cost}
	})
	if e2eVal.model == nil {
		t.Fatal("fixture setup failed")
	}
	return e2eVal
}

func testLearnerConfig() Config {
	cfg := DefaultConfig(testCategories)
	cfg.Window = WindowConfig{MaxCount: 4000, HorizonSec: 1.5 * 24 * 3600}
	cfg.RetrainEverySec = 24 * 3600
	cfg.Drift = DriftConfig{TVThreshold: 0.2, MinSamples: 300}
	cfg.MinRetrainJobs = 300
	cfg.Train.GBDT.NumRounds = 5
	cfg.Train.GBDT.Seed = 1
	return cfg
}

// newLoopRegistry publishes the stale pre-drift model as v1 of
// workload "w" in a fresh registry.
func newLoopRegistry(t *testing.T, fx e2eFixture) *registry.Registry {
	t.Helper()
	reg := registry.New()
	if _, err := reg.Publish("w", fx.model, 0); err != nil {
		t.Fatal(err)
	}
	return reg
}

// replayLoop runs the full closed loop over the fixture's replay trace
// and returns the result (with records kept for tail accounting). A nil
// learner replays the frozen-model baseline.
func replayLoop(t *testing.T, fx e2eFixture, reg *registry.Registry, learner *Learner, quota float64) (*sim.Result, *serve.Server) {
	t.Helper()
	srv, err := serve.New(reg, "w", fx.cm, serve.DefaultConfig(testCategories))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	res, err := RunLoop(fx.sc.Replay, Local(srv), learner, fx.cm, sim.Config{SSDQuota: quota, KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	return res, srv
}

// TestOnlineLoopRecoversFromDrift is the end-to-end acceptance test:
// with drift injected mid-trace, the closed loop (window → retrain →
// gate → hot swap) recovers TCO savings that a frozen model does not.
func TestOnlineLoopRecoversFromDrift(t *testing.T) {
	fx := testFixture(t)
	quota := fx.sc.Eval.PeakSSDUsage() * 0.05

	frozenRes, frozenSrv := replayLoop(t, fx, newLoopRegistry(t, fx), nil, quota)
	if frozenSrv.Swaps() != 0 {
		t.Fatalf("frozen baseline swapped %d times", frozenSrv.Swaps())
	}

	reg := newLoopRegistry(t, fx)
	learner, err := New(reg, "w", fx.cm, testLearnerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer learner.Close()
	onlineRes, onlineSrv := replayLoop(t, fx, reg, learner, quota)

	stats := learner.Stats()
	if stats.Retrains == 0 {
		t.Fatal("online loop never retrained")
	}
	if stats.GateAccepts == 0 {
		t.Fatalf("no candidate passed the gate: %+v", stats)
	}
	if onlineSrv.Swaps() == 0 {
		t.Fatal("server never hot-swapped despite accepted candidates")
	}
	if onlineSrv.ModelVersion() < 2 {
		t.Fatalf("server still serving v%d", onlineSrv.ModelVersion())
	}

	// Post-drift comparison: measure from one window-fill past the
	// splice, once the learner has had post-drift data to retrain on.
	from := fx.sc.SpliceSec
	frozenTail, err := TailSavingsPercent(frozenRes, fx.cm, from)
	if err != nil {
		t.Fatal(err)
	}
	onlineTail, err := TailSavingsPercent(onlineRes, fx.cm, from)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("post-drift TCO savings: online %.3f%% vs frozen %.3f%% (retrains %d, accepts %d, rejects %d, drift triggers %d)",
		onlineTail, frozenTail, stats.Retrains, stats.GateAccepts, stats.GateRejects, stats.DriftTriggers)
	if onlineTail <= frozenTail {
		t.Errorf("online loop did not recover savings: online %.3f%% <= frozen %.3f%%", onlineTail, frozenTail)
	}
}

// degradedModel builds a candidate that predicts the lowest-importance
// category for every job: Algorithm 1 then admits nothing (ACT >= 1),
// savings collapse, and the gate must reject it.
func degradedModel(m *core.CategoryModel) (*core.CategoryModel, error) {
	n := m.NumCategories()
	init := make([]float64, n)
	init[0] = 10 // argmax is always class 0
	file, err := json.Marshal(map[string]any{"schema": m.Model.Schema, "config": m.Model.Config,
		"num_classes": n, "init_scores": init})
	if err != nil {
		return nil, err
	}
	model, err := gbdt.Load(bytes.NewReader(file))
	if err != nil {
		return nil, err
	}
	return core.NewCategoryModel(m.Encoder, model, m.Labeler)
}

// TestGateRejectsRegressingCandidate forces retrains to produce a
// regressing model and asserts the gate blocks publication: no swap, no
// new version, the live model keeps serving.
func TestGateRejectsRegressingCandidate(t *testing.T) {
	fx := testFixture(t)
	quota := fx.sc.Eval.PeakSSDUsage() * 0.05

	lcfg := testLearnerConfig()
	lcfg.Drift.TVThreshold = 0 // cadence only
	lcfg.Trainer = func([]*trace.Job, *cost.Model) (*core.CategoryModel, error) {
		return degradedModel(fx.model)
	}
	var events []Event
	lcfg.OnEvent = func(ev Event) { events = append(events, ev) }

	reg := newLoopRegistry(t, fx)
	learner, err := New(reg, "w", fx.cm, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer learner.Close()
	_, srv := replayLoop(t, fx, reg, learner, quota)

	stats := learner.Stats()
	if stats.Retrains == 0 {
		t.Fatal("cadence never fired")
	}
	if stats.GateAccepts != 0 {
		t.Fatalf("regressing candidate passed the gate: %+v", stats)
	}
	if stats.GateRejects != stats.Retrains {
		t.Errorf("rejects %d != retrains %d", stats.GateRejects, stats.Retrains)
	}
	if srv.Swaps() != 0 {
		t.Errorf("server swapped %d times despite rejected candidates", srv.Swaps())
	}
	if v := srv.ModelVersion(); v != 1 {
		t.Errorf("serving v%d, want the original v1", v)
	}
	if len(reg.Versions("w")) != 1 {
		t.Errorf("registry grew to %d versions", len(reg.Versions("w")))
	}
	for _, ev := range events {
		if ev.Err != nil {
			t.Errorf("retrain error: %v", ev.Err)
		}
		if ev.Accepted {
			t.Errorf("event reports acceptance: %+v", ev)
		}
		if ev.CandidatePct >= ev.LivePct {
			t.Errorf("degraded candidate evaluated at %.3f%% >= live %.3f%%", ev.CandidatePct, ev.LivePct)
		}
	}
}

// TestDriftTriggerFiresOnCategoryShift feeds the learner a forced
// category-distribution shift and asserts the drift trigger (not the
// cadence) fires a retrain, and that publishing an identical candidate
// is accepted (equal savings pass the gate).
func TestDriftTriggerFiresOnCategoryShift(t *testing.T) {
	fx := testFixture(t)
	jobs := fx.sc.Pre.Test.Jobs
	if len(jobs) < 1100 {
		t.Fatalf("fixture too small: %d jobs", len(jobs))
	}

	reg := registry.New()
	if _, err := reg.Publish("w", fx.model, 0); err != nil {
		t.Fatal(err)
	}
	lcfg := testLearnerConfig()
	lcfg.RetrainEverySec = 0 // drift only
	lcfg.Window.MaxCount = 800
	lcfg.Drift = DriftConfig{TVThreshold: 0.4, MinSamples: 300}
	lcfg.Trainer = func([]*trace.Job, *cost.Model) (*core.CategoryModel, error) {
		return fx.model, nil // identical candidate: gate must accept
	}
	learner, err := New(reg, "w", fx.cm, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer learner.Close()

	o := sim.Outcome{SpilledAt: -1, EvictedAt: -1}
	for i := 0; i < 600; i++ {
		learner.Observe(jobs[i], 1, o)
	}
	if s := learner.Stats(); s.DriftTriggers != 0 {
		t.Fatalf("drift fired on a stable distribution: %+v", s)
	}
	for i := 600; i < 1100; i++ {
		learner.Observe(jobs[i], 4, o)
	}
	stats := learner.Stats()
	if stats.DriftTriggers == 0 {
		t.Fatalf("drift trigger never fired: %+v", stats)
	}
	if stats.CadenceTriggers != 0 {
		t.Errorf("cadence fired while disabled: %+v", stats)
	}
	if stats.GateAccepts == 0 {
		t.Errorf("identical candidate rejected: %+v", stats)
	}
	// Double-publish of an identical model: version advances anyway.
	if vs := reg.Versions("w"); len(vs) < 2 {
		t.Errorf("registry has %d versions, want >= 2", len(vs))
	}
}

// TestAsyncRetrainDoesNotBlockObserve exercises the background retrain
// path under load: observations keep flowing while a slow trainer runs,
// no double-trigger happens, and Close waits for the in-flight attempt.
func TestAsyncRetrainDoesNotBlockObserve(t *testing.T) {
	fx := testFixture(t)
	jobs := fx.sc.Pre.Test.Jobs

	lcfg := testLearnerConfig()
	lcfg.Async = true
	lcfg.RetrainEverySec = 6 * 3600
	lcfg.Drift.TVThreshold = 0
	started := make(chan struct{}, 16)
	lcfg.Trainer = func([]*trace.Job, *cost.Model) (*core.CategoryModel, error) {
		started <- struct{}{}
		time.Sleep(20 * time.Millisecond)
		return fx.model, nil
	}
	reg := registry.New()
	if _, err := reg.Publish("w", fx.model, 0); err != nil {
		t.Fatal(err)
	}
	learner, err := New(reg, "w", fx.cm, lcfg)
	if err != nil {
		t.Fatal(err)
	}

	o := sim.Outcome{SpilledAt: -1, EvictedAt: -1}
	for _, j := range jobs {
		learner.Observe(j, 1, o)
	}
	if err := learner.Close(); err != nil {
		t.Fatal(err)
	}
	stats := learner.Stats()
	if stats.Retrains+stats.TrainErrors == 0 {
		t.Fatalf("async retrain never completed: %+v", stats)
	}
	if got := len(started); int64(got) != stats.Retrains+stats.TrainErrors {
		t.Errorf("trainer started %d times, %d attempts recorded", got, stats.Retrains+stats.TrainErrors)
	}
	// Observe after Close is a no-op.
	learner.Observe(jobs[0], 1, o)
	if s := learner.Stats(); s.Observations != stats.Observations {
		t.Error("Observe after Close still recorded")
	}
}
