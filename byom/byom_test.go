package byom_test

import (
	"context"
	"testing"
	"time"

	"repro/byom"
)

// TestPublicAPIEndToEnd walks the full documented flow: generate,
// train, simulate, compare against baselines and the oracle.
func TestPublicAPIEndToEnd(t *testing.T) {
	gcfg := byom.DefaultGeneratorConfig("demo", 7)
	gcfg.DurationSec = 4 * 24 * 3600
	gcfg.NumUsers = 8
	full := byom.GenerateCluster(gcfg)
	train, test := full.SplitAt(2 * 24 * 3600)
	if len(train.Jobs) == 0 || len(test.Jobs) == 0 {
		t.Fatal("empty generated trace")
	}

	cm := byom.DefaultCostModel()
	opts := byom.DefaultTrainOptions()
	opts.GBDT.NumRounds = 10
	model, err := byom.TrainCategoryModel(train.Jobs, cm, opts)
	if err != nil {
		t.Fatal(err)
	}

	quota := test.PeakSSDUsage() * 0.01
	ranking, err := byom.NewAdaptiveRankingPolicy(model, cm)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := byom.Simulate(test, ranking, cm, byom.SimConfig{SSDQuota: quota})
	if err != nil {
		t.Fatal(err)
	}
	fres, err := byom.Simulate(test, byom.NewFirstFitPolicy(), cm, byom.SimConfig{SSDQuota: quota})
	if err != nil {
		t.Fatal(err)
	}
	if rres.TCOSavingsPercent() <= fres.TCOSavingsPercent() {
		t.Errorf("ranking %.3f%% <= firstfit %.3f%% at tight quota",
			rres.TCOSavingsPercent(), fres.TCOSavingsPercent())
	}

	heur := byom.NewHeuristicPolicy(cm, train.Jobs)
	if _, err := byom.Simulate(test, heur, cm, byom.SimConfig{SSDQuota: quota}); err != nil {
		t.Fatal(err)
	}

	sol, err := byom.SolveOracle(test.Jobs, quota, cm, byom.DefaultOracleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value <= 0 {
		t.Error("oracle found no savings")
	}
}

func TestPublicAPITracePersistence(t *testing.T) {
	gcfg := byom.DefaultGeneratorConfig("persist", 9)
	gcfg.DurationSec = 6 * 3600
	gcfg.NumUsers = 3
	tr := byom.GenerateCluster(gcfg)
	path := t.TempDir() + "/t.jsonl"
	if err := byom.SaveTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := byom.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != len(tr.Jobs) {
		t.Errorf("round trip lost jobs: %d vs %d", len(got.Jobs), len(tr.Jobs))
	}
}

func TestPublicAPIModelPersistence(t *testing.T) {
	gcfg := byom.DefaultGeneratorConfig("m", 11)
	gcfg.DurationSec = 12 * 3600
	gcfg.NumUsers = 4
	tr := byom.GenerateCluster(gcfg)
	cm := byom.DefaultCostModel()
	opts := byom.DefaultTrainOptions()
	opts.GBDT.NumRounds = 3
	model, err := byom.TrainCategoryModel(tr.Jobs, cm, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.json"
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := byom.LoadCategoryModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range tr.Jobs[:20] {
		if got.Predict(j) != model.Predict(j) {
			t.Fatal("prediction changed after persistence")
		}
	}
}

func TestClusterConfigsExposed(t *testing.T) {
	cfgs := byom.ClusterConfigs(4, 1)
	if len(cfgs) != 4 {
		t.Fatalf("got %d configs", len(cfgs))
	}
	rates := byom.DefaultCostRates()
	rates.SSDWearPerByteWritten *= 2
	cm := byom.NewCostModel(rates)
	if cm.Rates.SSDWearPerByteWritten != rates.SSDWearPerByteWritten {
		t.Error("custom rates not applied")
	}
}

// TestPublicAPIServer exercises the online serving path: NewServer for
// the one-model case, then registry-managed hot swap under traffic.
func TestPublicAPIServer(t *testing.T) {
	gcfg := byom.DefaultGeneratorConfig("serve-demo", 3)
	gcfg.DurationSec = 2 * 24 * 3600
	gcfg.NumUsers = 6
	full := byom.GenerateCluster(gcfg)
	train, test := full.SplitAt(1 * 24 * 3600)

	cm := byom.DefaultCostModel()
	opts := byom.DefaultTrainOptions()
	opts.NumCategories = 5
	opts.GBDT.NumRounds = 4
	opts.GBDT.MaxDepth = 3
	model, err := byom.TrainCategoryModel(train.Jobs, cm, opts)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := byom.NewServer(model, cm, byom.DefaultServeConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	jobs := test.Jobs
	if len(jobs) > 200 {
		jobs = jobs[:200]
	}
	decisions, err := srv.SubmitBatch(jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range decisions {
		if want := model.Predict(jobs[i]); d.Category != want {
			t.Fatalf("job %d: served category %d, model predicts %d", i, d.Category, want)
		}
	}
	if stats := srv.Stats(); stats.Submitted != int64(len(jobs)) {
		t.Fatalf("stats count %d, want %d", stats.Submitted, len(jobs))
	}

	// Registry-managed server: publishing v2 hot-swaps it.
	reg := byom.NewModelRegistry()
	if _, err := reg.Publish("pipeline", model, 0); err != nil {
		t.Fatal(err)
	}
	srv2, err := byom.NewServerFromRegistry(reg, "pipeline", cm, byom.DefaultServeConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if _, err := reg.Publish("pipeline", model, 1000); err != nil {
		t.Fatal(err)
	}
	if got := srv2.ModelVersion(); got != 2 {
		t.Fatalf("server did not swap to v2 (serving v%d)", got)
	}
	d, err := srv2.Submit(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if d.ModelVersion != 2 {
		t.Fatalf("decision served by v%d, want v2", d.ModelVersion)
	}
}

// TestPublicAPIOnlineLoop walks the documented online-learning flow:
// publish, serve, stream feedback through the learner, and observe the
// retrained model hot-swap into the server mid-replay.
func TestPublicAPIOnlineLoop(t *testing.T) {
	gcfg := byom.DefaultGeneratorConfig("online-demo", 5)
	gcfg.DurationSec = 3 * 24 * 3600
	gcfg.NumUsers = 6
	full := byom.GenerateCluster(gcfg)
	train, replay := full.SplitAt(1 * 24 * 3600)

	cm := byom.DefaultCostModel()
	opts := byom.DefaultTrainOptions()
	opts.NumCategories = 5
	opts.GBDT.NumRounds = 4
	model, err := byom.TrainCategoryModel(train.Jobs, cm, opts)
	if err != nil {
		t.Fatal(err)
	}

	reg := byom.NewModelRegistry()
	if _, err := reg.Publish("pipeline", model, 0); err != nil {
		t.Fatal(err)
	}
	srv, err := byom.NewServerFromRegistry(reg, "pipeline", cm, byom.DefaultServeConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	lcfg := byom.DefaultOnlineConfig(5)
	lcfg.Train = opts
	lcfg.RetrainEverySec = 12 * 3600
	lcfg.MinRetrainJobs = 200
	lcfg.Window = byom.OnlineWindowConfig{MaxCount: 2000, HorizonSec: 24 * 3600}
	var accepted int
	lcfg.OnEvent = func(ev byom.OnlineEvent) {
		if ev.Accepted {
			accepted++
		}
	}
	learner, err := byom.NewOnlineLearner(reg, "pipeline", cm, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer learner.Close()

	quota := replay.PeakSSDUsage() * 0.05
	res, err := byom.RunOnlineLoop(replay, srv, learner, cm, byom.SimConfig{SSDQuota: quota, KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TCOSaved <= 0 {
		t.Error("online loop saved nothing")
	}
	stats := learner.Stats()
	if stats.Observations != int64(len(replay.Jobs)) {
		t.Errorf("learner observed %d of %d outcomes", stats.Observations, len(replay.Jobs))
	}
	if stats.Retrains == 0 {
		t.Fatal("learner never retrained on a 2-day replay with a 12h cadence")
	}
	if accepted > 0 && srv.Swaps() == 0 {
		t.Error("accepted candidates but server never swapped")
	}
	if _, err := byom.TailSavingsPercent(res, cm, replay.Jobs[0].ArrivalSec); err != nil {
		t.Errorf("tail savings: %v", err)
	}
}

// TestPublicAPIDaemon walks the documented network flow: train, stand
// up a daemon on a loopback port, place over the wire with a client,
// post feedback, read model metadata and drain.
func TestPublicAPIDaemon(t *testing.T) {
	gcfg := byom.DefaultGeneratorConfig("daemon-demo", 9)
	gcfg.DurationSec = 24 * 3600
	gcfg.NumUsers = 5
	full := byom.GenerateCluster(gcfg)

	cm := byom.DefaultCostModel()
	opts := byom.DefaultTrainOptions()
	opts.NumCategories = 5
	opts.GBDT.NumRounds = 4
	opts.GBDT.MaxDepth = 3
	model, err := byom.TrainCategoryModel(full.Jobs, cm, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := byom.NewModelRegistry()
	if _, err := reg.Publish("svc", model, 0); err != nil {
		t.Fatal(err)
	}
	d, err := byom.NewDaemon(reg, "svc", cm, byom.DefaultDaemonConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	c, err := byom.NewClient(byom.DefaultClientConfig(d.BaseURL()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	jobs := full.Jobs
	if len(jobs) > 64 {
		jobs = jobs[:64]
	}
	decisions, err := c.Place(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != len(jobs) {
		t.Fatalf("%d decisions for %d jobs", len(decisions), len(jobs))
	}
	if decisions[0].JobID != jobs[0].ID {
		t.Errorf("decision echoes %q, want %q", decisions[0].JobID, jobs[0].ID)
	}
	o := byom.Outcome{WantedSSD: decisions[0].Admit, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}
	if err := c.Observe(ctx, jobs[0], decisions[0].Category, o); err != nil {
		t.Fatal(err)
	}
	info, err := c.ModelInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Workload != "svc" || info.ModelVersion != 1 || info.NumCategories != 5 {
		t.Errorf("model info %+v", info)
	}
	if stats := d.Stats(); stats.PlaceJobs != int64(len(jobs)) {
		t.Errorf("daemon counted %d placements, want %d", stats.PlaceJobs, len(jobs))
	}
}

// TestPublicAPIRouter walks the multi-node plane flow: replicate one
// source workload's model to two per-node registries, stand up two
// daemons, and route placements across them with NewRouter.
func TestPublicAPIRouter(t *testing.T) {
	gcfg := byom.DefaultGeneratorConfig("plane-demo", 13)
	gcfg.DurationSec = 24 * 3600
	gcfg.NumUsers = 5
	full := byom.GenerateCluster(gcfg)

	cm := byom.DefaultCostModel()
	opts := byom.DefaultTrainOptions()
	opts.NumCategories = 5
	opts.GBDT.NumRounds = 4
	opts.GBDT.MaxDepth = 3
	model, err := byom.TrainCategoryModel(full.Jobs, cm, opts)
	if err != nil {
		t.Fatal(err)
	}
	src := byom.NewModelRegistry()
	if _, err := src.Publish("svc", model, 0); err != nil {
		t.Fatal(err)
	}
	repl := byom.NewModelReplicator(src, "svc")
	defer repl.Close()

	var daemons []*byom.Daemon
	var urls []string
	for i := 0; i < 2; i++ {
		reg := byom.NewModelRegistry()
		if _, err := repl.Attach(reg, "svc"); err != nil {
			t.Fatal(err)
		}
		d, err := byom.NewDaemon(reg, "svc", cm, byom.DefaultDaemonConfig(5))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		daemons = append(daemons, d)
		urls = append(urls, d.BaseURL())
	}
	defer func() {
		for _, d := range daemons {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := d.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			cancel()
		}
	}()

	r, err := byom.NewRouter(byom.DefaultRouterConfig(urls))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	jobs := full.Jobs
	if len(jobs) > 128 {
		jobs = jobs[:128]
	}
	decisions, err := r.Place(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != len(jobs) {
		t.Fatalf("%d decisions for %d jobs", len(decisions), len(jobs))
	}
	for i, d := range decisions {
		if d.JobID != jobs[i].ID {
			t.Fatalf("decision %d echoes %q, want %q", i, d.JobID, jobs[i].ID)
		}
	}
	rs := r.Stats()
	if rs.Jobs != int64(len(jobs)) || rs.Failures != 0 {
		t.Errorf("router stats %+v, want %d jobs and 0 failures", rs, len(jobs))
	}
	if st := repl.Stats(); st.Publishes != 2 || st.Errors != 0 {
		t.Errorf("replicator stats %+v, want 2 publishes", st)
	}
	served := int64(0)
	for _, d := range daemons {
		served += d.Stats().PlaceJobs
	}
	if served != int64(len(jobs)) {
		t.Errorf("daemons served %d jobs, want %d", served, len(jobs))
	}
}
