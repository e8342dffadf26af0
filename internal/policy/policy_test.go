package policy

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gbdt"
	"repro/internal/sim"
	"repro/internal/trace"
)

func job(id string, arrival, lifetime, size float64, hot bool) *trace.Job {
	j := &trace.Job{
		ID: id, ArrivalSec: arrival, LifetimeSec: lifetime, SizeBytes: size,
		Pipeline: "p-" + id, Step: "s",
		AvgReadSizeBytes: 64 * 1024, CacheHitFrac: 0.2,
	}
	if hot {
		j.ReadBytes = size * 40
		j.WriteBytes = size * 1.2
	} else {
		j.ReadBytes = size * 0.05
		j.WriteBytes = size * 1.5
		j.AvgReadSizeBytes = 8 << 20
		j.CacheHitFrac = 0.6
	}
	return j
}

func TestFirstFitPlacesWhatFits(t *testing.T) {
	p := FirstFit{}
	j := job("a", 0, 100, 500, true)
	if !p.Place(j, sim.PlaceContext{SSDFree: 500}) {
		t.Error("exact fit rejected")
	}
	if p.Place(j, sim.PlaceContext{SSDFree: 499}) {
		t.Error("oversized job accepted")
	}
	if p.Name() != NameFirstFit {
		t.Errorf("name = %s", p.Name())
	}
}

func TestStaticPolicy(t *testing.T) {
	p := NewStatic("oracle", map[string]bool{"a": true})
	if !p.Place(job("a", 0, 1, 1, true), sim.PlaceContext{}) {
		t.Error("mapped job rejected")
	}
	if p.Place(job("b", 0, 1, 1, true), sim.PlaceContext{}) {
		t.Error("unmapped job accepted")
	}
	if p.Name() != "oracle" {
		t.Errorf("name = %s", p.Name())
	}
}

func TestAdaptiveHashCategoriesStable(t *testing.T) {
	p, err := NewAdaptiveHash(cost.Default(), core.DefaultAdaptiveConfig(15))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != NameAdaptiveHash {
		t.Errorf("name = %s", p.Name())
	}
	j := job("a", 0, 100, 500, true)
	c1 := hashCategory(j, 15)
	c2 := hashCategory(j, 15)
	if c1 != c2 {
		t.Error("hash category not stable")
	}
	if c1 < 1 || c1 > 14 {
		t.Errorf("hash category %d outside [1,14]", c1)
	}
	// Different templates should spread across categories.
	seen := map[int]bool{}
	for i := 0; i < 50; i++ {
		seen[hashCategory(job(string(rune('a'+i)), 0, 1, 1, true), 15)] = true
	}
	if len(seen) < 5 {
		t.Errorf("only %d distinct hash categories over 50 templates", len(seen))
	}
	// The category is 1 + FNV-1a(TemplateKey) mod (n-1); the reference
	// here is hash/fnv over the built key.
	cfg := trace.DefaultGeneratorConfig("C0", 7)
	cfg.DurationSec = 24 * 3600
	jobs := trace.NewGenerator(cfg).Generate().Jobs
	if len(jobs) < 1000 {
		t.Fatalf("generated %d jobs, want at least 1,000", len(jobs))
	}
	for _, n := range []int{2, 5, 15} {
		for _, j := range jobs {
			h := fnv.New32a()
			h.Write([]byte(j.TemplateKey()))
			if got, want := hashCategory(j, n), 1+int(h.Sum32()%uint32(n-1)); got != want {
				t.Fatalf("n=%d, template %q: category %d, reference %d", n, j.TemplateKey(), got, want)
			}
		}
	}
}

func TestHeuristicAdmitsSaversFirst(t *testing.T) {
	cm := cost.Default()
	h := NewHeuristic(cm)
	// Prime with history: hot template saves, cold template loses.
	var hist []*trace.Job
	for i := 0; i < 20; i++ {
		hot := job("h", float64(i)*100, 100, 1000, true)
		hot.Pipeline = "hotpipe"
		cold := job("c", float64(i)*100, 100, 1000, false)
		cold.Pipeline = "coldpipe"
		hist = append(hist, hot, cold)
	}
	h.Prime(hist)
	ctx := sim.PlaceContext{Now: 2100, SSDQuota: 1e12, SSDFree: 1e12}
	hotJob := job("x", 2100, 100, 1000, true)
	hotJob.Pipeline = "hotpipe"
	coldJob := job("y", 2100, 100, 1000, false)
	coldJob.Pipeline = "coldpipe"
	if !h.Place(hotJob, ctx) {
		t.Error("known-saving template rejected")
	}
	if h.Place(coldJob, ctx) {
		t.Error("known-losing template admitted")
	}
	// Unknown template: no history, not admitted.
	unknown := job("z", 2100, 100, 1000, true)
	unknown.Pipeline = "neverseen"
	if h.Place(unknown, ctx) {
		t.Error("unknown template admitted")
	}
}

func TestHeuristicRespectsQuotaBudget(t *testing.T) {
	cm := cost.Default()
	h := NewHeuristic(cm)
	// Two saving templates; tiny quota should admit only the better one
	// (ranked by total savings).
	var hist []*trace.Job
	for i := 0; i < 20; i++ {
		big := job("b", float64(i)*1000, 900, 1e9, true) // hot and huge: top saver
		big.Pipeline = "bigpipe"
		small := job("s", float64(i)*1000, 900, 1e6, true)
		small.Pipeline = "smallpipe"
		hist = append(hist, big, small)
	}
	h.Prime(hist)
	// Quota far below bigpipe's average occupancy: bigpipe is admitted
	// first (crossing category), exhausting the budget.
	ctx := sim.PlaceContext{Now: 21000, SSDQuota: 1e6, SSDFree: 1e6}
	bigJob := job("B", 21000, 900, 1e9, true)
	bigJob.Pipeline = "bigpipe"
	smallJob := job("S", 21000, 900, 1e6, true)
	smallJob.Pipeline = "smallpipe"
	if !h.Place(bigJob, ctx) {
		t.Error("top-saving template not admitted")
	}
	if h.Place(smallJob, ctx) {
		t.Error("budget-exceeding second template admitted")
	}
}

func TestMLBaselineLifetimeGate(t *testing.T) {
	cm := cost.Default()
	_ = cm
	// Training set with two recurring templates: short-lived and
	// long-lived, distinguishable by metadata.
	var train []*trace.Job
	for i := 0; i < 300; i++ {
		s := job("s", float64(i)*50, 60, 1000, true)
		s.Meta.PipelineName = "shortpipe"
		l := job("l", float64(i)*50, 86400, 1000, false)
		l.Meta.PipelineName = "longpipe"
		train = append(train, s, l)
	}
	cfg := gbdt.DefaultConfig()
	cfg.NumRounds = 15
	ml, err := TrainMLBaseline(train, 3600, cfg)
	if err != nil {
		t.Fatal(err)
	}
	short := job("x", 20000, 60, 1000, true)
	short.Meta.PipelineName = "shortpipe"
	long := job("y", 20000, 86400, 1000, false)
	long.Meta.PipelineName = "longpipe"
	if !ml.Place(short, sim.PlaceContext{}) {
		t.Errorf("short-lived job rejected (estimate %.0fs vs TTL %.0fs)",
			ml.EstimateLifetime(short), ml.TTLSec)
	}
	if ml.Place(long, sim.PlaceContext{}) {
		t.Errorf("long-lived job admitted (estimate %.0fs vs TTL %.0fs)",
			ml.EstimateLifetime(long), ml.TTLSec)
	}
	// Eviction deadline equals the lifetime estimate.
	if ml.EvictAfter(short) != ml.EstimateLifetime(short) {
		t.Error("EvictAfter != lifetime estimate")
	}
	// A fork shares the trained models, so it estimates the same.
	if fork := ml.Fork(); fork.EstimateLifetime(long) != ml.EstimateLifetime(long) {
		t.Error("fork estimates differently")
	}
}

func TestTrainMLBaselineErrors(t *testing.T) {
	cfg := gbdt.DefaultConfig()
	if _, err := TrainMLBaseline(nil, 3600, cfg); err == nil {
		t.Error("empty training set accepted")
	}
	train := []*trace.Job{job("a", 0, 100, 100, true)}
	if _, err := TrainMLBaseline(train, 0, cfg); err == nil {
		t.Error("zero TTL accepted")
	}
	bad := cfg
	bad.NumRounds = 0
	if _, err := TrainMLBaseline(train, 3600, bad); err == nil {
		t.Error("bad GBDT config accepted")
	}
}

func TestAdaptiveRankingConfigMismatch(t *testing.T) {
	cm := cost.Default()
	cfgT := trace.DefaultGeneratorConfig("C0", 5)
	cfgT.DurationSec = 12 * 3600
	jobs := trace.NewGenerator(cfgT).Generate().Jobs
	opts := core.DefaultTrainOptions()
	opts.NumCategories = 5
	opts.GBDT.NumRounds = 2
	model, err := core.TrainCategoryModel(jobs, cm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAdaptiveRanking(model, cm, core.DefaultAdaptiveConfig(15)); err == nil {
		t.Error("category-count mismatch accepted")
	}
	if _, err := NewAdaptiveRanking(model, cm, core.DefaultAdaptiveConfig(5)); err != nil {
		t.Errorf("matching config rejected: %v", err)
	}
	labeler := model.Labeler
	if _, err := NewAdaptiveTrue(labeler, cm, core.DefaultAdaptiveConfig(15)); err == nil {
		t.Error("labeler mismatch accepted")
	}
}

// TestEndToEndShape is the headline integration test: on a generated
// cluster with a tight SSD quota, AdaptiveRanking must beat FirstFit
// and AdaptiveHash on TCO savings (the paper's central claim), and all
// policies must respect the quota.
func TestEndToEndShape(t *testing.T) {
	cm := cost.Default()
	gcfg := trace.DefaultGeneratorConfig("C0", 2024)
	gcfg.DurationSec = 6 * 24 * 3600
	full := trace.NewGenerator(gcfg).Generate()
	train, test := full.SplitAt(3 * 24 * 3600)
	if len(train.Jobs) < 500 || len(test.Jobs) < 500 {
		t.Fatalf("trace too small: %d/%d", len(train.Jobs), len(test.Jobs))
	}

	opts := core.DefaultTrainOptions()
	opts.GBDT.NumRounds = 25
	model, err := core.TrainCategoryModel(train.Jobs, cm, opts)
	if err != nil {
		t.Fatal(err)
	}

	quota := test.PeakSSDUsage() * 0.01
	acfg := core.DefaultAdaptiveConfig(opts.NumCategories)

	ranking, err := NewAdaptiveRanking(model, cm, acfg)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := NewAdaptiveHash(cm, acfg)
	if err != nil {
		t.Fatal(err)
	}
	heur := NewHeuristic(cm)
	heur.Prime(train.Jobs)

	results, err := sim.RunAll(test, []sim.Policy{FirstFit{}, ranking, hash, heur}, cm,
		sim.Config{SSDQuota: quota})
	if err != nil {
		t.Fatal(err)
	}

	rk := results[NameAdaptiveRanking].TCOSavingsPercent()
	ff := results[NameFirstFit].TCOSavingsPercent()
	hs := results[NameAdaptiveHash].TCOSavingsPercent()
	he := results[NameHeuristic].TCOSavingsPercent()
	t.Logf("TCO savings %%: ranking=%.3f firstfit=%.3f hash=%.3f heuristic=%.3f", rk, ff, hs, he)

	if rk <= ff {
		t.Errorf("AdaptiveRanking (%.3f%%) must beat FirstFit (%.3f%%) at 1%% quota", rk, ff)
	}
	if rk <= hs {
		t.Errorf("AdaptiveRanking (%.3f%%) must beat AdaptiveHash (%.3f%%): the model matters", rk, hs)
	}
	if rk <= 0 {
		t.Error("AdaptiveRanking should achieve positive savings")
	}
}

func TestTrainImitationValidation(t *testing.T) {
	cm := cost.Default()
	cfg := gbdt.DefaultConfig()
	cfg.NumRounds = 3
	if _, err := TrainImitation(nil, 100, cm, cfg); err == nil {
		t.Error("empty training set accepted")
	}
	jobs := []*trace.Job{job("a", 0, 100, 1000, true)}
	if _, err := TrainImitation(jobs, -1, cm, cfg); err == nil {
		t.Error("negative quota accepted")
	}
	// Zero capacity: the oracle admits nothing, so there is nothing to
	// imitate.
	if _, err := TrainImitation(jobs, 0, cm, cfg); err == nil {
		t.Error("unimitatable (empty) oracle accepted")
	}
}

func TestImitationLearnsOracleDecisions(t *testing.T) {
	cm := cost.Default()
	// Recurring hot and cold templates; ample capacity so the oracle
	// admits exactly the positive-savings jobs.
	var train []*trace.Job
	for i := 0; i < 150; i++ {
		h := job(fmt.Sprintf("h%03d", i), float64(i)*200, 100, 1000, true)
		h.Pipeline = "hotpipe"
		h.Meta.PipelineName = "hotpipe"
		c := job(fmt.Sprintf("c%03d", i), float64(i)*200, 100, 1000, false)
		c.Pipeline = "coldpipe"
		c.Meta.PipelineName = "coldpipe"
		train = append(train, h, c)
	}
	cfg := gbdt.DefaultConfig()
	cfg.NumRounds = 10
	imit, err := TrainImitation(train, 1e9, cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if imit.Name() != NameImitation {
		t.Errorf("name = %s", imit.Name())
	}
	hot := job("x", 40000, 100, 1000, true)
	hot.Pipeline = "hotpipe"
	hot.Meta.PipelineName = "hotpipe"
	cold := job("y", 40000, 100, 1000, false)
	cold.Pipeline = "coldpipe"
	cold.Meta.PipelineName = "coldpipe"
	if !imit.Place(hot, sim.PlaceContext{}) {
		t.Error("imitation rejected the hot template the oracle admits")
	}
	if imit.Place(cold, sim.PlaceContext{}) {
		t.Error("imitation admitted the cold template the oracle rejects")
	}
}
