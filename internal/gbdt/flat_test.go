package gbdt

import (
	"math"
	"math/rand"
	"testing"
)

// trainFlatFixture trains a small classifier over mixed numeric and
// categorical features for the Forest equivalence tests.
func trainFlatFixture(t testing.TB, n, rounds int) (*Model, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	schema := &Schema{
		Names: []string{"x0", "x1", "cat0", "x2"},
		Kinds: []FeatureKind{Numeric, Numeric, Categorical, Numeric},
		Cards: []int{0, 0, 8, 0},
	}
	ds := NewDataset(schema, n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		x0 := rng.NormFloat64()
		x1 := rng.Float64() * 10
		c := float64(rng.Intn(8))
		x2 := rng.NormFloat64()
		if rng.Float64() < 0.05 {
			x2 = math.NaN() // exercise missing-value routing
		}
		ds.Set(i, 0, x0)
		ds.Set(i, 1, x1)
		ds.Set(i, 2, c)
		ds.Set(i, 3, x2)
		switch {
		case x0 > 0.5 && c >= 4:
			labels[i] = 2
		case x1 > 5:
			labels[i] = 1
		default:
			labels[i] = 0
		}
	}
	cfg := DefaultConfig()
	cfg.NumRounds = rounds
	cfg.MaxDepth = 4
	m, err := TrainClassifier(ds, labels, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = ds.Row(i, nil)
	}
	return m, rows
}

func TestForestMatchesModel(t *testing.T) {
	m, rows := trainFlatFixture(t, 400, 12)
	f, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() != m.NumTrees() {
		t.Fatalf("forest has %d trees, model %d", f.NumTrees(), m.NumTrees())
	}
	var logitBuf []float64
	for i, row := range rows {
		want := m.Logits(row)
		logitBuf = f.Logits(row, logitBuf)
		for k := range want {
			if math.Abs(want[k]-logitBuf[k]) > 1e-12 {
				t.Fatalf("row %d class %d: forest logit %g != model %g", i, k, logitBuf[k], want[k])
			}
		}
		if got, want := f.PredictClass(row), m.PredictClass(row); got != want {
			t.Fatalf("row %d: forest class %d != model %d", i, got, want)
		}
	}
}

func TestForestPredictBatchMatchesPerRow(t *testing.T) {
	m, rows := trainFlatFixture(t, 700, 10) // > batchBlock rows to cross a block boundary
	f := m.MustCompile()
	batch := f.PredictBatch(rows)
	classes, _ := f.PredictClassBatch(rows, nil, nil)
	for i, row := range rows {
		want := m.Logits(row)
		for k := range want {
			if math.Abs(want[k]-batch[i][k]) > 1e-12 {
				t.Fatalf("row %d class %d: batch logit %g != model %g", i, k, batch[i][k], want[k])
			}
		}
		if want := m.PredictClass(row); classes[i] != want {
			t.Fatalf("row %d: batch class %d != model %d", i, classes[i], want)
		}
	}
}

func TestForestBufferReuse(t *testing.T) {
	m, rows := trainFlatFixture(t, 300, 6)
	f := m.MustCompile()
	classes, scratch := f.PredictClassBatch(rows[:100], nil, nil)
	classes2, scratch2 := f.PredictClassBatch(rows[100:200], classes, scratch)
	if &classes2[0] != &classes[0] {
		t.Error("classes buffer was not reused")
	}
	if &scratch2[0] != &scratch[0] {
		t.Error("scratch buffer was not reused")
	}
	for i, row := range rows[100:200] {
		if want := m.PredictClass(row); classes2[i] != want {
			t.Fatalf("row %d: reused-buffer class %d != model %d", i, classes2[i], want)
		}
	}
}

func TestForestRegressor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	schema := &Schema{Names: []string{"x"}, Kinds: []FeatureKind{Numeric}, Cards: []int{0}}
	n := 200
	ds := NewDataset(schema, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := rng.Float64() * 4
		ds.Set(i, 0, x)
		ys[i] = 3 * x
	}
	cfg := DefaultConfig()
	cfg.NumRounds = 15
	m, err := TrainRegressor(ds, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := m.MustCompile()
	for i := 0; i < n; i++ {
		row := ds.Row(i, nil)
		want := m.PredictValue(row)
		got := f.Logits(row, nil)[0]
		if math.Abs(want-got) > 1e-12 {
			t.Fatalf("row %d: forest value %g != model %g", i, got, want)
		}
	}
}

// TestPredictClassBatchSteadyStateAllocs is the batch kernel's
// allocation budget: a caller that hands back the scratch it was given
// allocates nothing, across row counts on both sides of the 8-lane
// group and the block boundary, and the logits it reads out of that
// scratch stay bit-equal to Model.Logits (the tile shares the buffer).
func TestPredictClassBatchSteadyStateAllocs(t *testing.T) {
	m, rows := trainFlatFixture(t, 200, 10)
	f := m.MustCompile()
	sizes := []int{1, 8, 13, 64, 65, 13, 1}
	var classes []int
	var scratch []float64
	for _, n := range sizes { // grow once to the largest size
		classes, scratch = f.PredictClassBatch(rows[:n], classes, scratch)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, n := range sizes {
			classes, scratch = f.PredictClassBatch(rows[:n], classes, scratch)
		}
	})
	if allocs != 0 {
		t.Errorf("PredictClassBatch with its own scratch: %.1f allocations per pass over sizes %v, want 0", allocs, sizes)
	}
	for _, n := range sizes {
		off := 100 - n // a different window per size, so stale tile rows would show
		classes, scratch = f.PredictClassBatch(rows[off:off+n], classes, scratch)
		for i, row := range rows[off : off+n] {
			want := m.Logits(row)
			for k := range want {
				if got := scratch[i*f.NumClasses+k]; got != want[k] {
					t.Fatalf("%d rows, row %d class %d: logit %v, Model.Logits %v", n, i, k, got, want[k])
				}
			}
			if classes[i] != m.PredictClass(row) {
				t.Fatalf("%d rows, row %d: class %d, model %d", n, i, classes[i], m.PredictClass(row))
			}
		}
	}
}

func BenchmarkModelPredictPerRow(b *testing.B) {
	m, rows := trainFlatFixture(b, 2000, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.PredictClass(rows[i%len(rows)])
	}
}

func BenchmarkForestPredictBatch(b *testing.B) {
	m, rows := trainFlatFixture(b, 2000, 60)
	f := m.MustCompile()
	var classes []int
	var scratch []float64
	b.ResetTimer()
	for i := 0; i < b.N; i += len(rows) {
		classes, scratch = f.PredictClassBatch(rows, classes, scratch)
	}
	_ = classes
}

// TestForestCategoricalEdgeValues pins Forest/Tree parity on the odd
// categorical inputs: fractional negatives truncate to 0 (which must
// probe, not short-cut right), ids at the 64-word boundary, unseen ids
// and NaN.
func TestForestCategoricalEdgeValues(t *testing.T) {
	schema := &Schema{
		Names: []string{"c"},
		Kinds: []FeatureKind{Categorical},
		Cards: []int{130},
	}
	tree := &Tree{Nodes: []Node{
		{Feature: 0, Kind: Categorical, LeftCats: []int32{0, 63, 64, 129}, Left: 1, Right: 2},
		{IsLeaf: true, Value: 1},
		{IsLeaf: true, Value: 2},
	}}
	m := &Model{
		Schema:     schema,
		NumClasses: 1,
		InitScores: []float64{0},
		Trees:      [][]*Tree{{tree}},
	}
	f := m.MustCompile()
	for _, v := range []float64{-0.99, -0.5, -1, -1.5, 0, 0.7, 1, 62.9, 63, 64, 65, 128, 129, 130, 500, math.NaN()} {
		row := []float64{v}
		want := tree.Predict(row)
		got := f.Logits(row, nil)[0]
		if got != want {
			t.Errorf("value %v: forest %v, tree %v", v, got, want)
		}
		batch := f.PredictBatch([][]float64{row})
		if batch[0][0] != want {
			t.Errorf("value %v: batch %v, tree %v", v, batch[0][0], want)
		}
	}
}
