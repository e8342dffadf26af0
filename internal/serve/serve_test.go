package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/leakcheck"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/trace"
)

const testCategories = 5

// fixture bundles the shared serving test environment: a small trained
// model and a stream of held-out jobs. The model and jobs are shared
// read-only across tests; every test publishes into its own registry.
type fixture struct {
	cm    *cost.Model
	model *core.CategoryModel
	jobs  []*trace.Job
}

// newRegistry publishes the fixture model as version 1 of workload "w"
// in a fresh registry.
func (fx fixture) newRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	reg := registry.New()
	if _, err := reg.Publish("w", fx.model, 0); err != nil {
		t.Fatal(err)
	}
	return reg
}

var (
	fixtureOnce sync.Once
	fixtureVal  fixture
)

// testFixture trains one small category model and caches it for all
// tests (training dominates test runtime otherwise).
func testFixture(t *testing.T) fixture {
	t.Helper()
	fixtureOnce.Do(func() {
		cfg := trace.DefaultGeneratorConfig("serve-test", 11)
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

func testConfig() Config { return DefaultConfig(testCategories) }

func newTestServer(t *testing.T, cfg Config) (*Server, fixture, *registry.Registry) {
	t.Helper()
	fx := testFixture(t)
	reg := fx.newRegistry(t)
	srv, err := New(reg, "w", fx.cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, fx, reg
}

func TestServeMatchesModelPredictions(t *testing.T) {
	srv, fx, _ := newTestServer(t, testConfig())
	jobs := fx.jobs
	if len(jobs) > 300 {
		jobs = jobs[:300]
	}
	decisions, err := srv.SubmitBatch(jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		d := decisions[i]
		if want := fx.model.Predict(j); d.Category != want {
			t.Fatalf("job %d: served category %d, model predicts %d", i, d.Category, want)
		}
		if d.ModelVersion != 1 {
			t.Fatalf("job %d: served by version %d, want 1", i, d.ModelVersion)
		}
		if d.Shard < 0 || d.Shard >= Shards {
			t.Fatalf("job %d: bad shard %d", i, d.Shard)
		}
	}
	stats := srv.Stats()
	if stats.Submitted != int64(len(jobs)) {
		t.Fatalf("stats count %d submissions, want %d", stats.Submitted, len(jobs))
	}
	if stats.Batches == 0 || stats.MeanBatchSize < 1 {
		t.Fatalf("no batching recorded: %+v", stats)
	}
}

func TestShardRoutingIsStable(t *testing.T) {
	srv, fx, _ := newTestServer(t, testConfig())
	j := fx.jobs[0]
	d1, err := srv.Submit(j)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		d2, err := srv.Submit(j)
		if err != nil {
			t.Fatal(err)
		}
		if d2.Shard != d1.Shard {
			t.Fatalf("job moved from shard %d to %d between submissions", d1.Shard, d2.Shard)
		}
	}
}

// TestConcurrentSubmitAcrossShards hammers the server from 8 submitter
// goroutines (run with -race).
func TestConcurrentSubmitAcrossShards(t *testing.T) {
	srv, fx, _ := newTestServer(t, testConfig())
	const submitters = 8
	per := len(fx.jobs) / submitters
	if per > 250 {
		per = 250
	}
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for w := 0; w < submitters; w++ {
		jobs := fx.jobs[w*per : (w+1)*per]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []Decision
			for len(jobs) > 0 {
				chunk := 32
				if chunk > len(jobs) {
					chunk = len(jobs)
				}
				var err error
				out, err = srv.SubmitBatch(jobs[:chunk], out)
				if err != nil {
					errs <- err
					return
				}
				for _, d := range out {
					if d.Category < 0 || d.Category >= testCategories {
						errs <- errCategory(d.Category)
						return
					}
				}
				jobs = jobs[chunk:]
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	stats := srv.Stats()
	if want := int64(submitters * per); stats.Submitted != want {
		t.Fatalf("stats count %d submissions, want %d", stats.Submitted, want)
	}
}

type errCategory int

func (e errCategory) Error() string { return "category out of range" }

// TestHotSwapUnderLoad publishes new model versions while submitters
// are in flight: the swap must be atomic (every decision carries a
// version that was active) and lossless (run with -race).
func TestHotSwapUnderLoad(t *testing.T) {
	srv, fx, reg := newTestServer(t, testConfig())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served atomic64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var out []Decision
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				jobs := fx.jobs[(w*97+i*31)%(len(fx.jobs)-32):]
				var err error
				out, err = srv.SubmitBatch(jobs[:32], out)
				if err != nil {
					t.Error(err)
					return
				}
				for _, d := range out {
					if d.ModelVersion < 1 || d.ModelVersion > 3 {
						t.Errorf("decision carries unknown model version %d", d.ModelVersion)
						return
					}
					served.add(1)
				}
			}
		}(w)
	}

	// Publish two more versions and roll back mid-traffic.
	for v := 2; v <= 3; v++ {
		time.Sleep(5 * time.Millisecond)
		if _, err := reg.Publish("w", fx.model, float64(v)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, time.Second, func() bool { return srv.ModelVersion() == 3 })
	if err := reg.Rollback("w", 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return srv.ModelVersion() == 1 })
	close(stop)
	wg.Wait()

	if srv.Swaps() < 3 {
		t.Fatalf("expected >= 3 hot swaps, got %d", srv.Swaps())
	}
	if served.load() == 0 {
		t.Fatal("no decisions served during the swap storm")
	}
}

// TestSwapRejectsIncompatibleModel keeps the old model serving when a
// published version has the wrong category count.
func TestSwapRejectsIncompatibleModel(t *testing.T) {
	fx := testFixture(t)
	reg := registry.New()
	if _, err := reg.Publish("iso", fx.model, 0); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	srv, err := New(reg, "iso", fx.cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	opts := core.DefaultTrainOptions()
	opts.NumCategories = 3 // mismatched N
	opts.GBDT.NumRounds = 2
	opts.GBDT.MaxDepth = 2
	bad, err := core.TrainCategoryModel(fx.jobs[:400], fx.cm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("iso", bad, 1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if got := srv.ModelVersion(); got != 1 {
		t.Fatalf("incompatible model was installed (serving v%d)", got)
	}
	if d, err := srv.Submit(fx.jobs[0]); err != nil || d.ModelVersion != 1 {
		t.Fatalf("serving broken after rejected swap: %+v, %v", d, err)
	}
}

// TestBatchFlushTimeout submits one job, far fewer than the batch cap,
// and checks the lone submitter is served at once as a one-row drain
// flush: the worker takes what is queued and never waits for a batch
// to fill or for a timer, so no full or timeout flush is counted.
func TestBatchFlushTimeout(t *testing.T) {
	srv, fx, _ := newTestServer(t, testConfig())

	const limit = 500 * time.Millisecond
	start := time.Now()
	if _, err := srv.Submit(fx.jobs[0]); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > limit {
		t.Fatalf("single submit took %s (limit %s); the worker waited for more requests", elapsed, limit)
	}
	stats := srv.Stats()
	if stats.Batches != 1 || stats.DrainFlushes != 1 {
		t.Fatalf("one submit: want 1 batch, 1 drain flush, got %+v", stats)
	}
	if stats.FullFlushes != 0 || stats.TimeoutFlushes != 0 {
		t.Fatalf("a 1-job batch is neither a full nor a timeout flush: %+v", stats)
	}
}

// TestDrainFlushLowQPSLatency is the regression test for the low-QPS
// latency wart: a paced trickle of single submits (each arriving into
// an idle shard) must each be served as a batch of its own, at once,
// never held back for more requests. Before the drain flush, p50 at
// paced 10k-QPS rates sat at the 2 ms flush interval the server then
// had.
func TestDrainFlushLowQPSLatency(t *testing.T) {
	srv, fx, _ := newTestServer(t, testConfig())

	const n = 20
	const limit = 250 * time.Millisecond
	var worst time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := srv.Submit(fx.jobs[i%len(fx.jobs)]); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
		time.Sleep(2 * time.Millisecond) // paced: queue is idle between submits
	}
	if worst >= limit {
		t.Errorf("worst paced-submit latency %s >= %s; the worker waited for more requests", worst, limit)
	}
	stats := srv.Stats()
	if stats.Batches != n || stats.DrainFlushes != n || stats.FullFlushes != 0 || stats.TimeoutFlushes != 0 {
		t.Errorf("%d lone submits: want %d drain flushes and nothing else, got %+v", n, n, stats)
	}
}

// TestObserveMovesACT drives heavy spillover feedback into the server
// and checks the controller tightens admission.
func TestObserveMovesACT(t *testing.T) {
	cfg := testConfig()
	cfg.Adaptive.DecisionIntervalSec = 10
	cfg.Adaptive.LookBackSec = 100
	srv, fx, _ := newTestServer(t, cfg)

	j := fx.jobs[0]
	if act := srv.ACT(); act != 1 {
		t.Fatalf("initial ACT = %d, want 1", act)
	}
	// Feed outcomes where everything wanted SSD and spilled entirely.
	base := j.ArrivalSec
	for i := 0; i < 50; i++ {
		jj := *j
		jj.ArrivalSec = base + float64(i)
		jj.LifetimeSec = 5
		if err := srv.Observe(&jj, sim.Outcome{WantedSSD: true, FracOnSSD: 0, SpilledAt: jj.ArrivalSec}); err != nil {
			t.Fatal(err)
		}
	}
	// Trigger controller updates with submissions past the decision
	// interval; under 100% spillover ACT must ratchet up.
	for i := 1; i <= 3; i++ {
		jj := *j
		jj.ArrivalSec = base + 50 + float64(i)*20
		if _, err := srv.Submit(&jj); err != nil {
			t.Fatal(err)
		}
	}
	if act := srv.ACT(); act <= 1 {
		t.Fatalf("ACT did not rise under total spillover: %d", act)
	}
}

// TestOutcomeReachesEveryTemplate: the server runs one controller, so
// total-spillover outcomes for a job queued on one shard raise the
// threshold that decides a job queued on another.
func TestOutcomeReachesEveryTemplate(t *testing.T) {
	cfg := testConfig()
	cfg.Adaptive.DecisionIntervalSec = 10
	cfg.Adaptive.LookBackSec = 100
	srv, fx, _ := newTestServer(t, cfg)

	shardOf := func(j *trace.Job) int { return int(TemplateHash(j) % Shards) }
	spilled := fx.jobs[0]
	var other *trace.Job
	for _, j := range fx.jobs {
		if shardOf(j) != shardOf(spilled) {
			other = j
			break
		}
	}
	if other == nil {
		t.Fatal("every fixture job hashes to one shard")
	}
	base := spilled.ArrivalSec
	for i := 0; i < 50; i++ {
		jj := *spilled
		jj.ArrivalSec = base + float64(i)
		jj.LifetimeSec = 5
		if err := srv.Observe(&jj, sim.Outcome{WantedSSD: true, FracOnSSD: 0, SpilledAt: jj.ArrivalSec}); err != nil {
			t.Fatal(err)
		}
	}
	var d Decision
	for i := 1; i <= 3; i++ {
		jj := *other
		jj.ArrivalSec = base + 50 + float64(i)*20
		var err error
		if d, err = srv.Submit(&jj); err != nil {
			t.Fatal(err)
		}
		if d.Shard != shardOf(other) {
			t.Fatalf("job queued on shard %d, its hash names shard %d", d.Shard, shardOf(other))
		}
	}
	act := srv.ACT()
	if act <= 1 {
		t.Fatalf("outcomes queued on shard %d left the ACT deciding shard %d at %d",
			shardOf(spilled), shardOf(other), act)
	}
	if d.Admit != (d.Category >= act) {
		t.Errorf("category %d decided admit=%v under ACT %d", d.Category, d.Admit, act)
	}
}

// TestObserveIsAppliedOnReturn pins Observe's contract: when it returns,
// the controller has the outcome. Eight goroutines post concurrently;
// the moment they are joined — no wait, no poll — the observation count
// is exact, and the next submissions move the server's ACT exactly as a
// reference controller fed every outcome moves (total spillover, so the
// spillover ratio is 1 whatever order the goroutines interleaved in).
func TestObserveIsAppliedOnReturn(t *testing.T) {
	cfg := testConfig()
	cfg.Adaptive.DecisionIntervalSec = 10
	cfg.Adaptive.LookBackSec = 100
	srv, fx, _ := newTestServer(t, cfg)

	const goroutines, each = 8, 50
	base := fx.jobs[0].ArrivalSec
	jobs := make([]trace.Job, goroutines*each)
	ref, err := core.NewAdaptive(cfg.Adaptive)
	if err != nil {
		t.Fatal(err)
	}
	outcome := func(j *trace.Job) sim.Outcome {
		return sim.Outcome{WantedSSD: true, FracOnSSD: 0, SpilledAt: j.ArrivalSec}
	}
	for i := range jobs {
		jobs[i] = *fx.jobs[i%len(fx.jobs)]
		jobs[i].ArrivalSec = base + float64(i%50)
		jobs[i].LifetimeSec = 5
		j := &jobs[i]
		ref.Observe(sim.SpilloverFeedback(j, outcome(j), fx.cm))
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(mine []trace.Job) {
			defer wg.Done()
			for i := range mine {
				if err := srv.Observe(&mine[i], outcome(&mine[i])); err != nil {
					t.Error(err)
					return
				}
			}
		}(jobs[g*each : (g+1)*each])
	}
	wg.Wait()
	if got := srv.Stats().Observations; got != goroutines*each {
		t.Fatalf("%d observations counted when the last Observe returned, want %d", got, goroutines*each)
	}

	// Tick the controller past the decision interval three times, each
	// time through another of the jobs.
	for tick := 1; tick <= 3; tick++ {
		now := base + 50 + float64(tick)*20
		jj := jobs[tick]
		jj.ArrivalSec = now
		if _, err := srv.Submit(&jj); err != nil {
			t.Fatal(err)
		}
		ref.Admit(0, now)
		if got, want := srv.ACT(), ref.ACT(); got != want {
			t.Fatalf("tick %d: ACT %d, the reference controller says %d", tick, got, want)
		}
	}
	if act := srv.ACT(); act <= 1 {
		t.Errorf("ACT %d did not rise under total spillover", act)
	}
}

// checkStats holds a Stats snapshot taken once the callers are joined
// to what they were told: exact submission, observation and admit
// counts, flush kinds that sum to the batches with no timeout flush (the
// server has no flush timer), MeanBatchSize derived from the counts,
// and 0 < MeanLatency <= MaxLatency.
func checkStats(t *testing.T, st metrics.ShardSnapshot, submitted, observations, admitted int64) {
	t.Helper()
	if st.Submitted != submitted {
		t.Errorf("Submitted %d, want %d", st.Submitted, submitted)
	}
	if st.Observations != observations {
		t.Errorf("Observations %d, want %d", st.Observations, observations)
	}
	if st.Admitted != admitted {
		t.Errorf("Admitted %d, the callers were returned %d admits", st.Admitted, admitted)
	}
	if st.Batches == 0 || st.FullFlushes+st.TimeoutFlushes+st.DrainFlushes != st.Batches {
		t.Errorf("flushes %d full + %d timeout + %d drain, batches %d",
			st.FullFlushes, st.TimeoutFlushes, st.DrainFlushes, st.Batches)
	}
	if st.TimeoutFlushes != 0 {
		t.Errorf("%d timeout flushes from a server with no flush timer", st.TimeoutFlushes)
	}
	if want := float64(st.Submitted) / float64(st.Batches); st.MeanBatchSize != want {
		t.Errorf("MeanBatchSize %g, want %g", st.MeanBatchSize, want)
	}
	if st.MeanLatency <= 0 || st.MeanLatency > st.MaxLatency {
		t.Errorf("MeanLatency %s, MaxLatency %s: want 0 < mean <= max", st.MeanLatency, st.MaxLatency)
	}
}

// TestStatsZeroSnapshot: a server that has placed and observed nothing
// reports all-zero stats, its means included (no division by a zero
// count).
func TestStatsZeroSnapshot(t *testing.T) {
	srv, _, _ := newTestServer(t, testConfig())
	if st := srv.Stats(); st != (metrics.ShardSnapshot{}) {
		t.Fatalf("a fresh server's stats: %+v", st)
	}
}

// TestStatsSnapshot: one caller places a batch and a single job, then
// posts outcomes; Stats, read after each call returns, already counts
// everything the call did.
func TestStatsSnapshot(t *testing.T) {
	srv, fx, _ := newTestServer(t, testConfig())
	const chunk, observed = 24, 3
	var admitted int64
	out, err := srv.SubmitBatch(fx.jobs[:chunk], nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range out {
		if d.Admit {
			admitted++
		}
	}
	d, err := srv.Submit(fx.jobs[chunk])
	if err != nil {
		t.Fatal(err)
	}
	if d.Admit {
		admitted++
	}
	for i := 0; i < observed; i++ {
		j := fx.jobs[i]
		if err := srv.Observe(j, sim.Outcome{WantedSSD: true, FracOnSSD: 0.5, SpilledAt: j.ArrivalSec}); err != nil {
			t.Fatal(err)
		}
	}
	checkStats(t, srv.Stats(), chunk+1, observed, admitted)
}

// TestStatsCountsUnderOneLock: the counters are plain fields under the
// controller lock, so they are exact the moment the callers are joined
// and no snapshot tears between fields, even one taken mid-traffic.
// Submitters on both placement paths and outcome posters run
// concurrently over the shards beside a Stats reader (run with -race).
func TestStatsCountsUnderOneLock(t *testing.T) {
	srv, fx, _ := newTestServer(t, testConfig())

	const callers, rounds, chunk = 3, 20, 24
	jobs := fx.jobs[:chunk]
	var admitted atomic64
	countAdmits := func(out []Decision) {
		for _, d := range out {
			if d.Admit {
				admitted.add(1)
			}
		}
	}
	consistent := func(st metrics.ShardSnapshot) bool {
		return st.FullFlushes+st.TimeoutFlushes+st.DrainFlushes == st.Batches &&
			st.Admitted <= st.Submitted && st.MeanLatency <= st.MaxLatency
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	torn := make(chan metrics.ShardSnapshot, 1)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := srv.Stats(); !consistent(st) {
				select {
				case torn <- st:
				default:
				}
			}
		}
	}()
	for g := 0; g < callers; g++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			var out []Decision
			for i := 0; i < rounds; i++ {
				var err error
				if out, err = srv.SubmitBatch(jobs, out); err != nil {
					t.Error(err)
					return
				}
				countAdmits(out)
			}
		}()
		go func() {
			defer wg.Done()
			b := encodeBatch(srv, jobs)
			var out []Decision
			for i := 0; i < rounds; i++ {
				var err error
				if out, err = b.submit(srv, out); err != nil {
					t.Error(err)
					return
				}
				countAdmits(out)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				j := jobs[i%len(jobs)]
				if err := srv.Observe(j, sim.Outcome{WantedSSD: true, FracOnSSD: 0.5, SpilledAt: j.ArrivalSec}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	select {
	case st := <-torn:
		t.Fatalf("a snapshot tore between fields: %+v", st)
	default:
	}

	checkStats(t, srv.Stats(), 2*callers*rounds*chunk, callers*rounds, admitted.load())
}

func TestSubmitAfterClose(t *testing.T) {
	srv, fx, _ := newTestServer(t, testConfig())
	if _, err := srv.Submit(fx.jobs[0]); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
	if _, err := srv.Submit(fx.jobs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	if err := srv.Observe(fx.jobs[0], sim.Outcome{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Observe after Close: %v, want ErrClosed", err)
	}
}

// TestCloseDuringSubmits closes the server while callers loop on both
// placement paths. Every call either returns all its decisions or
// ErrClosed, none hangs, and once the callers are joined every worker
// the server started is gone (run with -race).
func TestCloseDuringSubmits(t *testing.T) {
	fx := testFixture(t)
	reg := fx.newRegistry(t)
	checkGoroutines := leakcheck.Goroutines(t, "a server closed under submits")
	srv, err := New(reg, "w", fx.cm, testConfig())
	if err != nil {
		t.Fatal(err)
	}

	const callers = 3
	jobs := fx.jobs[:24]
	var served atomic.Int64
	// loop calls submit until it fails, checking that each call that
	// succeeds wrote every decision.
	loop := func(submit func([]Decision) ([]Decision, error)) {
		out := make([]Decision, len(jobs))
		for {
			for i := range out {
				out[i] = Decision{}
			}
			out, err := submit(out)
			if err != nil {
				if !errors.Is(err, ErrClosed) {
					t.Errorf("a call racing Close: %v, want decisions or ErrClosed", err)
				}
				return
			}
			for i, d := range out {
				if d.ModelVersion != 1 {
					t.Errorf("a call racing Close returned no decision for row %d: %+v", i, d)
					return
				}
			}
			served.Add(1)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		b := encodeBatch(srv, jobs)
		wg.Add(2)
		go func() {
			defer wg.Done()
			loop(func(out []Decision) ([]Decision, error) { return srv.SubmitBatch(jobs, out) })
		}()
		go func() {
			defer wg.Done()
			loop(func(out []Decision) ([]Decision, error) { return b.submit(srv, out) })
		}()
	}
	waitFor(t, 5*time.Second, func() bool { return served.Load() >= 4*callers })
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	checkGoroutines()
}

func TestNewValidatesConfig(t *testing.T) {
	fx := testFixture(t)
	reg := fx.newRegistry(t)
	bad := []func(*Config){
		func(c *Config) { c.Adaptive.NumCategories = 1 },
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		if _, err := New(reg, "w", fx.cm, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// Category-count mismatch between model and controller.
	cfg := testConfig()
	cfg.Adaptive = core.DefaultAdaptiveConfig(7)
	if _, err := New(reg, "w", fx.cm, cfg); err == nil {
		t.Error("mismatched category count accepted")
	}
	// Unknown workload.
	if _, err := New(reg, "nope", fx.cm, testConfig()); err == nil {
		t.Error("unknown workload accepted")
	}
}

// atomic64 is a tiny test helper counter.
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached before timeout")
}
