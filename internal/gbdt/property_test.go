package gbdt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestTreePredictTotalProperty: every possible input row reaches
// exactly one leaf — prediction never panics and returns a finite
// value for arbitrary finite inputs.
func TestTreePredictTotalProperty(t *testing.T) {
	ds, labels := xorDataset(600, 21)
	cfg := DefaultConfig()
	cfg.NumRounds = 6
	m, err := TrainClassifier(ds, labels, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		p := m.Logits([]float64{a, b})
		return !math.IsNaN(p[0]) && !math.IsNaN(p[1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMoreRoundsNeverHurtTraining: with full-batch training, adding
// rounds cannot increase the final training loss.
func TestMoreRoundsNeverHurtTraining(t *testing.T) {
	ds, labels := xorDataset(500, 23)
	last := math.Inf(1)
	for _, rounds := range []int{2, 8, 20} {
		cfg := DefaultConfig()
		cfg.NumRounds = rounds
		cfg.Subsample = 1
		m, err := TrainClassifier(ds, labels, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		final := m.TrainLoss[len(m.TrainLoss)-1]
		if final > last+1e-9 {
			t.Fatalf("%d rounds ended with loss %g > shorter run %g", rounds, final, last)
		}
		last = final
	}
}

// TestRegressorWithCategoricalFeature: regression over a pure
// categorical signal recovers per-category means.
func TestRegressorWithCategoricalFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	n := 3000
	s := &Schema{Names: []string{"c"}, Kinds: []FeatureKind{Categorical}, Cards: []int{5}}
	ds := NewDataset(s, n)
	targets := make([]float64, n)
	means := []float64{-2, 0, 3, 7, -5}
	for i := 0; i < n; i++ {
		c := rng.Intn(5)
		ds.Set(i, 0, float64(c))
		targets[i] = means[c] + 0.01*rng.NormFloat64()
	}
	cfg := DefaultConfig()
	cfg.NumRounds = 40
	cfg.MinSamplesLeaf = 10
	m, err := TrainRegressor(ds, targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c, want := range means {
		got := m.Logits([]float64{float64(c)})[0]
		if math.Abs(got-want) > 0.25 {
			t.Errorf("category %d predicted %g, want ~%g", c, got, want)
		}
	}
}

// TestTrainingWithConstantFeatures: constant columns must not break
// split finding (no splits possible on them), and the engine keeps no
// column for them. Constant here means every training row falls in one
// bin: numeric constants, a numeric constant apart from NaNs (NaN bins
// with the smallest values), and a categorical feature with card > 1 of
// which one id is observed.
func TestTrainingWithConstantFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	n := 400
	s := numSchema(5)
	s.Kinds[3], s.Cards[3] = Categorical, 5
	ds := NewDataset(s, n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		ds.Set(i, 0, 7)   // constant
		ds.Set(i, 1, 0.5) // constant
		v := rng.NormFloat64()
		ds.Set(i, 2, v)
		if v > 0 {
			labels[i] = 1
		}
		ds.Set(i, 3, 3) // one observed id of five
		if i%3 == 0 {
			ds.Set(i, 4, math.NaN())
		} else {
			ds.Set(i, 4, 2)
		}
	}
	cfg := DefaultConfig()
	cfg.NumRounds = 5
	if got := EngineColumns(ds, cfg); got != 1 {
		t.Errorf("engine keeps %d columns, want 1 (only feature 2 can split)", got)
	}
	m, trees, err := TrainClassifierTrees(ds, labels, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r, round := range trees {
		for k, tree := range round {
			for i, nd := range tree.Nodes {
				if !nd.IsLeaf && nd.Feature != 2 {
					t.Fatalf("round %d class %d node %d splits on constant feature %d", r, k, i, nd.Feature)
				}
			}
		}
	}
	if m.PredictClass([]float64{7, 0.5, 3, 3, 2}) != 1 {
		t.Error("informative feature ignored")
	}
	t.Run("all constant", testAllConstant)
}

// testAllConstant: when no feature can split, the engine has no columns
// and no chunks, every tree is one leaf, and growing one takes no
// histogram.
func testAllConstant(t *testing.T) {
	n := 300
	s := numSchema(3)
	s.Kinds[1], s.Cards[1] = Categorical, 4
	ds := NewDataset(s, n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		ds.Set(i, 0, 1.5)
		ds.Set(i, 1, 2)
		if i%2 == 0 {
			ds.Set(i, 2, math.NaN())
		} else {
			ds.Set(i, 2, -4)
		}
		labels[i] = i % 3
	}
	cfg := DefaultConfig()
	cfg.NumRounds = 3
	for _, w := range []int{1, 2} {
		cfg.Workers = w
		eng := newHistEngine(ds, buildBinning(ds, cfg.MaxBins, w), cfg, 3)
		if len(eng.cols) != 0 || len(eng.featChunks) != 0 || eng.totalBins != 0 {
			t.Fatalf("workers %d: engine has %d columns, %d chunks, %d bins; want none",
				w, len(eng.cols), len(eng.featChunks), eng.totalBins)
		}
		tg := newTreeGrower(eng, n)
		tg.gh, tg.leafOut = make([]float64, 2*n), make([]float64, n)
		for i := 0; i < n; i++ {
			tg.gh[2*i], tg.gh[2*i+1] = float64(i%5)-2, 1
		}
		rows, out := sampleRows(n, 1, rand.New(rand.NewSource(1)), nil, nil)
		tree := &Tree{}
		if tg.grow(rows, out, tree); len(tree.Nodes) != 1 || len(tg.free) != 0 {
			t.Fatalf("workers %d: grew %d nodes and pooled %d histograms, want one leaf and none",
				w, len(tree.Nodes), len(tg.free))
		}
		_, trees, err := TrainClassifierTrees(ds, labels, 3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r, round := range trees {
			for k, tree := range round {
				if len(tree.Nodes) != 1 {
					t.Fatalf("workers %d: round %d class %d tree has %d nodes, want one leaf", w, r, k, len(tree.Nodes))
				}
			}
		}
	}
}

// TestTrainingWithNaNFeatures: missing numeric values route left and
// training still converges on the clean feature.
func TestTrainingWithNaNFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	n := 800
	ds := NewDataset(numSchema(2), n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.3 {
			ds.Set(i, 0, math.NaN())
		} else {
			ds.Set(i, 0, rng.NormFloat64())
		}
		v := rng.NormFloat64()
		ds.Set(i, 1, v)
		if v > 0 {
			labels[i] = 1
		}
	}
	cfg := DefaultConfig()
	cfg.NumRounds = 10
	m, err := TrainClassifier(ds, labels, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	row := make([]float64, 2)
	for i := 0; i < n; i++ {
		row = ds.Row(i, row)
		want := labels[i]
		if m.PredictClass(row) == want {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.9 {
		t.Errorf("accuracy with NaNs = %.3f", acc)
	}
}

// TestSubsampleExtremes: tiny subsample fractions still train (the
// sampler guarantees at least one row).
func TestSubsampleExtremes(t *testing.T) {
	ds, labels := xorDataset(200, 27)
	cfg := DefaultConfig()
	cfg.NumRounds = 3
	cfg.Subsample = 0.001
	if _, err := TrainClassifier(ds, labels, 2, cfg); err != nil {
		t.Fatalf("tiny subsample failed: %v", err)
	}
}

// TestImbalancedLabels: a 99:1 class skew must not produce NaN losses
// or probabilities.
func TestImbalancedLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	n := 1000
	ds := NewDataset(numSchema(1), n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		ds.Set(i, 0, rng.NormFloat64())
		if i%100 == 0 {
			labels[i] = 1
		}
	}
	cfg := DefaultConfig()
	cfg.NumRounds = 10
	m, err := TrainClassifier(ds, labels, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range m.TrainLoss {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("invalid loss %g", l)
		}
	}
	p := Compiled(t, m).PredictProba([]float64{0}, nil)
	if math.IsNaN(p[0]) {
		t.Fatal("NaN probability")
	}
	// The majority class should dominate the prior at a neutral input.
	if p[0] < 0.5 {
		t.Errorf("majority-class probability %g < 0.5", p[0])
	}
}
