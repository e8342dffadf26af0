package core_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/gbdt"
	"repro/internal/perf"
	"repro/internal/trace"
)

var fixture struct {
	once  sync.Once
	model *core.CategoryModel
	pool  []*trace.Job
	err   error
}

// paperModel is the benchmark's seed-1 fixture: the paper-scale model
// (15 categories x 60 rounds of depth 6) and its 16,384-job replay
// pool; under -short, the quick fixture's 7-round model and 1,536 jobs,
// so the race job still runs everything here.
func paperModel(tb testing.TB) (*core.CategoryModel, []*trace.Job) {
	tb.Helper()
	fixture.once.Do(func() {
		f, err := perf.NewFixture(1, testing.Short())
		if err != nil {
			fixture.err = err
			return
		}
		fixture.pool = f.Pool
		fixture.model, fixture.err = core.TrainCategoryModel(f.Train, f.Cost, f.TrainOptions(perf.ScalePaper))
	})
	if fixture.err != nil {
		tb.Fatal(fixture.err)
	}
	return fixture.model, fixture.pool
}

// liteModel is the quick fixture's small model and pool, for tests
// that need a trained bundle of their own and not its size.
func liteModel(tb testing.TB) (*core.CategoryModel, []*trace.Job) {
	tb.Helper()
	f, err := perf.NewFixture(1, true)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := core.TrainCategoryModel(f.Train, f.Cost, f.TrainOptions(perf.ScaleLite))
	if err != nil {
		tb.Fatal(err)
	}
	return m, f.Pool
}

// TestCategoriesMatchesPredict holds the batched classifier to the
// reference walk: Categories (a pooled slab, the forest's 64-row
// blocks) equals Predict (gbdt.Model.PredictClass on a fresh row) on
// every pool job, and at the lengths where a block begins and ends.
func TestCategoriesMatchesPredict(t *testing.T) {
	model, pool := paperModel(t)
	want := make([]int32, len(pool))
	var ref sync.WaitGroup
	for w, workers := 0, runtime.GOMAXPROCS(0); w < workers; w++ { // the reference is slow: 0.3 ms a job
		ref.Add(1)
		go func() {
			defer ref.Done()
			for i := w; i < len(pool); i += workers {
				want[i] = int32(model.Predict(pool[i]))
			}
		}()
	}
	ref.Wait()
	check := func(jobs []*trace.Job, got []int32) {
		t.Helper()
		if len(got) != len(jobs) {
			t.Fatalf("%d categories for %d jobs", len(got), len(jobs))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%d jobs: job %d is category %d, Predict says %d", len(jobs), i, got[i], want[i])
			}
		}
	}
	var out []int32
	for _, n := range []int{len(pool), 0, 1, 63, 64, 65, 131} {
		out = model.Categories(pool[:n], out) // reused: a stale tail would show
		check(pool[:n], out)
	}
	// Callers at once (replays in a pool) share the forest and the slabs.
	var wg sync.WaitGroup
	outs := make([][]int32, 3)
	for c := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[c] = model.Categories(pool[:1000+c], nil)
		}()
	}
	wg.Wait()
	for c, got := range outs {
		check(pool[:1000+c], got)
	}
	// The single-row entry is the same kernel.
	var buf []float64
	for i := 0; i < len(pool); i += 97 {
		var got int
		if got, buf = model.PredictInto(pool[i], buf); int32(got) != want[i] {
			t.Fatalf("PredictInto: job %d is category %d, Predict says %d", i, got, want[i])
		}
	}
}

// TestForestCompilesOnce: every concurrent user gets the one forest,
// compiled when the model was trained, which is also what the model's
// Compile returns (run under -race).
func TestForestCompilesOnce(t *testing.T) {
	model, pool := liteModel(t)
	const users = 8
	forests := make([]*gbdt.Forest, users)
	cats := make([]int, users)
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch u % 3 {
			case 0:
				cats[u], _ = model.PredictInto(pool[0], nil)
			case 1:
				cats[u] = int(model.Categories(pool[:1], nil)[0])
			default:
				cats[u] = model.Predict(pool[0])
			}
			forests[u] = model.Forest()
			if u == users-1 {
				forests[u], _ = model.Model.Compile()
			}
		}()
	}
	wg.Wait()
	for u := range forests {
		if forests[u] == nil || forests[u] != forests[0] {
			t.Fatalf("user %d holds forest %p, user 0 %p", u, forests[u], forests[0])
		}
		if cats[u] != cats[0] {
			t.Errorf("user %d predicted category %d, user 0 %d", u, cats[u], cats[0])
		}
	}
}

// TestPredictIntoSteadyStateAllocs: the single-row kernel allocates
// nothing once its row buffer has grown.
func TestPredictIntoSteadyStateAllocs(t *testing.T) {
	model, pool := liteModel(t)
	_, buf := model.PredictInto(pool[0], nil)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		_, buf = model.PredictInto(pool[i%len(pool)], buf)
		i++
	})
	if allocs != 0 {
		t.Errorf("PredictInto: %.1f allocations per call, want 0", allocs)
	}
	hinter := model.Hinter()
	hinter.Hint(pool[0])
	if allocs := testing.AllocsPerRun(200, func() { hinter.Hint(pool[i%len(pool)]); i++ }); allocs != 0 {
		t.Errorf("Hinter.Hint: %.1f allocations per call, want 0", allocs)
	}
}

// everyIDLeftModel is the model file of a valid two-class model no
// forest can hold: its two splits on one categorical feature route every
// uint16 id left between them, leaving none for a missing value (gbdt's
// TestCompileLimits, "every id routed left"). The feature's cardinality
// is raised to 65,536 so that the ids pass validation.
func everyIDLeftModel(tb testing.TB, jobs []*trace.Job) (*features.Encoder, []byte) {
	tb.Helper()
	enc := features.BuildEncoder(jobs, 64)
	schema := *enc.Schema()
	schema.Cards = slices.Clone(schema.Cards)
	feat := slices.Index(schema.Kinds, gbdt.Categorical)
	if feat < 0 {
		tb.Fatal("the encoder has no categorical feature")
	}
	schema.Cards[feat] = 1 << 16
	type node = map[string]any
	split := func(ids []int32) node {
		return node{"nodes": []node{
			{"f": feat, "k": gbdt.Categorical, "c": ids, "l": 1, "r": 2},
			{"leaf": true, "v": 1}, {"leaf": true, "v": -1},
		}}
	}
	rest := make([]int32, 0, 1<<16-1)
	for id := int32(1); id < 1<<16; id++ {
		rest = append(rest, id)
	}
	leaf := node{"nodes": []node{{"leaf": true}}}
	file, err := json.Marshal(node{"schema": &schema, "num_classes": 2, "init_scores": []float64{0, 0},
		"trees": [][]node{{leaf, split([]int32{0})}, {leaf, split(rest)}}})
	if err != nil {
		tb.Fatal(err)
	}
	return enc, file
}

// TestLoadCategoryModelRefusesUncompilable: a model the forest cannot
// hold is refused where it is loaded, alone and in a bundle, with the
// compiler's *gbdt.LimitError, so no bundle reaches a predictor or a
// registry without its forest.
func TestLoadCategoryModelRefusesUncompilable(t *testing.T) {
	_, pool := liteModel(t)
	enc, model := everyIDLeftModel(t, pool[:200])
	var limit *gbdt.LimitError
	if m, err := gbdt.Load(bytes.NewReader(model)); !errors.As(err, &limit) {
		t.Fatalf("gbdt.Load = %v, %v; want a *gbdt.LimitError", m, err)
	}
	// The model laid out in a bundle as Save writes one.
	var file bytes.Buffer
	bundle := map[string]any{"encoder": enc, "model": json.RawMessage(model), "labeler": &core.Labeler{NumCategories: 2}}
	if err := json.NewEncoder(&file).Encode(bundle); err != nil {
		t.Fatal(err)
	}
	if m, err := core.LoadCategoryModel(&file); !errors.As(err, &limit) {
		t.Fatalf("LoadCategoryModel = %v, %v; want a *gbdt.LimitError", m, err)
	}
}
