package gbdt

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumRounds = 0 },
		func(c *Config) { c.MaxDepth = 0 },
		func(c *Config) { c.LearningRate = 0 },
		func(c *Config) { c.LearningRate = 1.5 },
		func(c *Config) { c.Subsample = 0 },
		func(c *Config) { c.Subsample = 1.1 },
		func(c *Config) { c.MinSamplesLeaf = 0 },
		func(c *Config) { c.MaxBins = 1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	cfg := DefaultConfig()
	if err := cfg.validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// xorDataset builds the classic XOR problem, unlearnable by a depth-1
// model but easy for depth >= 2 trees.
func xorDataset(n int, seed int64) (*Dataset, []int) {
	rng := rand.New(rand.NewSource(seed))
	ds := NewDataset(numSchema(2), n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		x := rng.Float64()*2 - 1
		y := rng.Float64()*2 - 1
		ds.Set(i, 0, x)
		ds.Set(i, 1, y)
		if (x > 0) != (y > 0) {
			labels[i] = 1
		}
	}
	return ds, labels
}

func TestClassifierLearnsXOR(t *testing.T) {
	ds, labels := xorDataset(2000, 1)
	cfg := DefaultConfig()
	cfg.NumRounds = 30
	m, err := TrainClassifier(ds, labels, 2, cfg)
	if err != nil {
		t.Fatalf("TrainClassifier: %v", err)
	}
	test, testLabels := xorDataset(500, 2)
	correct := 0
	row := make([]float64, 2)
	for i := 0; i < test.N; i++ {
		row = test.Row(i, row)
		if m.PredictClass(row) == testLabels[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(test.N)
	if acc < 0.95 {
		t.Errorf("XOR test accuracy = %.3f, want >= 0.95", acc)
	}
}

func TestClassifierMulticlass(t *testing.T) {
	// Three classes separated by a single numeric feature.
	rng := rand.New(rand.NewSource(3))
	n := 1500
	ds := NewDataset(numSchema(1), n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		v := rng.Float64() * 3
		ds.Set(i, 0, v)
		labels[i] = int(v)
	}
	cfg := DefaultConfig()
	cfg.NumRounds = 20
	m, err := TrainClassifier(ds, labels, 3, cfg)
	if err != nil {
		t.Fatalf("TrainClassifier: %v", err)
	}
	for _, c := range []struct {
		x    float64
		want int
	}{{0.5, 0}, {1.5, 1}, {2.5, 2}} {
		if got := m.PredictClass([]float64{c.x}); got != c.want {
			t.Errorf("PredictClass(%g) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestClassifierCategoricalFeature(t *testing.T) {
	// Label determined by membership of a categorical feature in a set.
	rng := rand.New(rand.NewSource(4))
	n := 2000
	s := &Schema{
		Names: []string{"cat", "noise"},
		Kinds: []FeatureKind{Categorical, Numeric},
		Cards: []int{10, 0},
	}
	ds := NewDataset(s, n)
	labels := make([]int, n)
	positive := map[int]bool{1: true, 4: true, 7: true}
	for i := 0; i < n; i++ {
		c := rng.Intn(10)
		ds.Set(i, 0, float64(c))
		ds.Set(i, 1, rng.NormFloat64())
		if positive[c] {
			labels[i] = 1
		}
	}
	cfg := DefaultConfig()
	cfg.NumRounds = 15
	m, err := TrainClassifier(ds, labels, 2, cfg)
	if err != nil {
		t.Fatalf("TrainClassifier: %v", err)
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
	if acc := float64(correct) / float64(n); acc < 0.99 {
		t.Errorf("categorical accuracy = %.3f, want >= 0.99", acc)
	}
}

func TestClassifierProbabilitiesSimplex(t *testing.T) {
	ds, labels := xorDataset(500, 5)
	cfg := DefaultConfig()
	cfg.NumRounds = 10
	m, err := TrainClassifier(ds, labels, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		row := []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		p := Compiled(t, m).PredictProba(row, nil)
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("probability %g outside [0,1] for row %v", v, row)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %g for row %v", sum, row)
		}
	}
}

func TestClassifierLossDecreases(t *testing.T) {
	ds, labels := xorDataset(1000, 7)
	cfg := DefaultConfig()
	cfg.NumRounds = 25
	cfg.Subsample = 1 // full-batch so training loss decreases monotonically
	m, err := TrainClassifier(ds, labels, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.TrainLoss) != cfg.NumRounds {
		t.Fatalf("TrainLoss has %d entries, want %d", len(m.TrainLoss), cfg.NumRounds)
	}
	for i := 1; i < len(m.TrainLoss); i++ {
		if m.TrainLoss[i] > m.TrainLoss[i-1]+1e-9 {
			t.Fatalf("training loss increased at round %d: %g -> %g", i, m.TrainLoss[i-1], m.TrainLoss[i])
		}
	}
	if last := m.TrainLoss[len(m.TrainLoss)-1]; last >= m.TrainLoss[0]*0.5 {
		t.Errorf("loss only fell from %g to %g", m.TrainLoss[0], last)
	}
}

func TestClassifierDeterminism(t *testing.T) {
	ds, labels := xorDataset(500, 8)
	cfg := DefaultConfig()
	cfg.NumRounds = 8
	m1, err := TrainClassifier(ds, labels, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := TrainClassifier(ds, labels, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		row := []float64{rng.NormFloat64(), rng.NormFloat64()}
		p1 := m1.Logits(row)
		p2 := m2.Logits(row)
		for k := range p1 {
			if p1[k] != p2[k] {
				t.Fatalf("identical configs produced different predictions: %v vs %v", p1, p2)
			}
		}
	}
}

func TestClassifierErrors(t *testing.T) {
	ds, labels := xorDataset(100, 10)
	cfg := DefaultConfig()
	if _, err := TrainClassifier(ds, labels, 1, cfg); err == nil {
		t.Error("1-class training accepted")
	}
	if _, err := TrainClassifier(ds, labels[:50], 2, cfg); err == nil {
		t.Error("label length mismatch accepted")
	}
	badLabels := append([]int(nil), labels...)
	badLabels[0] = 5
	if _, err := TrainClassifier(ds, badLabels, 2, cfg); err == nil {
		t.Error("out-of-range label accepted")
	}
	empty := NewDataset(numSchema(2), 0)
	if _, err := TrainClassifier(empty, nil, 2, cfg); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestRegressorFitsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 2000
	ds := NewDataset(numSchema(2), n)
	targets := make([]float64, n)
	for i := 0; i < n; i++ {
		x := rng.Float64() * 10
		z := rng.Float64()
		ds.Set(i, 0, x)
		ds.Set(i, 1, z)
		targets[i] = 3*x + 0.1*rng.NormFloat64()
	}
	cfg := DefaultConfig()
	cfg.NumRounds = 80
	m, err := TrainRegressor(ds, targets, cfg)
	if err != nil {
		t.Fatalf("TrainRegressor: %v", err)
	}
	var sse, sst, mean float64
	for _, y := range targets {
		mean += y
	}
	mean /= float64(n)
	row := make([]float64, 2)
	for i := 0; i < n; i++ {
		row = ds.Row(i, row)
		p := m.Logits(row)[0]
		sse += (p - targets[i]) * (p - targets[i])
		sst += (targets[i] - mean) * (targets[i] - mean)
	}
	r2 := 1 - sse/sst
	if r2 < 0.97 {
		t.Errorf("R^2 = %.4f, want >= 0.97", r2)
	}
}

func TestRegressorLossDecreases(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 500
	ds := NewDataset(numSchema(1), n)
	targets := make([]float64, n)
	for i := 0; i < n; i++ {
		x := rng.Float64()
		ds.Set(i, 0, x)
		targets[i] = math.Sin(6 * x)
	}
	cfg := DefaultConfig()
	cfg.NumRounds = 30
	cfg.Subsample = 1
	m, err := TrainRegressor(ds, targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(m.TrainLoss); i++ {
		if m.TrainLoss[i] > m.TrainLoss[i-1]+1e-12 {
			t.Fatalf("MSE increased at round %d", i)
		}
	}
}

func TestPredictPanicsOnWrongMode(t *testing.T) {
	ds, _ := xorDataset(100, 13)
	cfg := DefaultConfig()
	cfg.NumRounds = 2
	targets := make([]float64, ds.N)
	reg, _ := TrainRegressor(ds, targets, cfg)
	assertPanics(t, func() { Compiled(t, reg).PredictProba([]float64{0, 0}, nil) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestSerializationRoundTrip(t *testing.T) {
	ds, labels := xorDataset(800, 14)
	cfg := DefaultConfig()
	cfg.NumRounds = 10
	m, err := TrainClassifier(ds, labels, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	rng := rand.New(rand.NewSource(15))
	row := make([]float64, 2)
	for i := 0; i < 200; i++ {
		row[0] = rng.NormFloat64()
		row[1] = rng.NormFloat64()
		p1 := m.Logits(row)
		p2 := got.Logits(row)
		for k := range p1 {
			if p1[k] != p2[k] {
				t.Fatalf("prediction changed after round trip: %v vs %v", p1, p2)
			}
		}
	}
	if !reflect.DeepEqual(got.forest, m.forest) {
		t.Error("the loaded forest differs from the saved one")
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(bytes.NewBufferString(`{"num_classes":0}`)); err == nil {
		t.Error("model without schema accepted")
	}
	if _, err := Load(bytes.NewBufferString(`{"schema":{"names":["a"],"kinds":[0],"cards":[0]},"num_classes":2,"init_scores":[0.1]}`)); err == nil {
		t.Error("init-score mismatch accepted")
	}
}

func TestSingleLeafPredictsPrior(t *testing.T) {
	// With MaxDepth high but MinSamplesLeaf > n, no split is possible:
	// every prediction equals the class prior.
	ds, labels := xorDataset(100, 17)
	cfg := DefaultConfig()
	cfg.NumRounds = 3
	cfg.MinSamplesLeaf = 200
	m, err := TrainClassifier(ds, labels, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1 := m.Logits([]float64{-5, -5})
	p2 := m.Logits([]float64{5, 5})
	for k := range p1 {
		if math.Abs(p1[k]-p2[k]) > 1e-12 {
			t.Fatalf("stumpless model not constant: %v vs %v", p1, p2)
		}
	}
}

func TestMissingValuesRouteLeft(t *testing.T) {
	// NaN must behave like -inf at prediction time.
	tree := &Tree{Nodes: []Node{
		{Feature: 0, Threshold: 1.0, Left: 1, Right: 2},
		{IsLeaf: true, Value: -7},
		{IsLeaf: true, Value: 7},
	}}
	if got := tree.Predict([]float64{math.NaN()}); got != -7 {
		t.Errorf("NaN routed to %g, want -7", got)
	}
	if got := tree.Predict([]float64{0.5}); got != -7 {
		t.Errorf("0.5 routed to %g, want -7", got)
	}
	if got := tree.Predict([]float64{2}); got != 7 {
		t.Errorf("2 routed to %g, want 7", got)
	}
}

func TestUnseenCategoryRoutesRight(t *testing.T) {
	tree := withLeftCats(&Tree{Nodes: []Node{
		{Feature: 0, Kind: uint8(Categorical), Left: 1, Right: 2},
		{IsLeaf: true, Value: -7},
		{IsLeaf: true, Value: 7},
	}}, 0, 0, 2)
	if got := tree.Predict([]float64{2}); got != -7 {
		t.Errorf("category 2 routed to %g, want -7", got)
	}
	if got := tree.Predict([]float64{99}); got != 7 {
		t.Errorf("unseen category routed to %g, want 7", got)
	}
	if got := tree.Predict([]float64{math.NaN()}); got != 7 {
		t.Errorf("missing category routed to %g, want 7", got)
	}
}

func TestNumLeaves(t *testing.T) {
	stump := &Tree{Nodes: []Node{
		{Feature: 0, Threshold: 0, Left: 1, Right: 2},
		{IsLeaf: true}, {IsLeaf: true},
	}}
	leaf := &Tree{Nodes: []Node{{IsLeaf: true}}}
	m, err := FromTrees(&Model{Schema: &Schema{Names: []string{"x"}, Kinds: []FeatureKind{Numeric}, Cards: []int{0}},
		NumClasses: 2, InitScores: []float64{0, 0}}, [][]*Tree{{stump, leaf}, {leaf, stump}})
	if err != nil {
		t.Fatal(err)
	}
	if trees, leaves := m.forest.NumTrees(), m.forest.NumLeaves(); trees != 4 || leaves != 6 {
		t.Errorf("NumTrees = %d, NumLeaves = %d; want 4 and 6", trees, leaves)
	}
}
