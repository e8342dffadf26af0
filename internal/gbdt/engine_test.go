package gbdt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/leakcheck"
)

// engineFixture builds a mixed numeric/categorical multiclass problem
// large enough to exercise subsampling, sibling subtraction and the
// parallel feature-chunk path (segments above parallelNodeMinRows).
func engineFixture(n, classes int, seed int64) (*Dataset, []int) {
	rng := rand.New(rand.NewSource(seed))
	s := &Schema{
		Names: []string{"x0", "x1", "x2", "cat0", "cat1"},
		Kinds: []FeatureKind{Numeric, Numeric, Numeric, Categorical, Categorical},
		Cards: []int{0, 0, 0, 11, 37},
	}
	ds := NewDataset(s, n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		var sum float64
		for f := 0; f < 3; f++ {
			v := rng.NormFloat64()
			ds.Set(i, f, v)
			sum += v
		}
		c0 := rng.Intn(11)
		c1 := rng.Intn(37)
		ds.Set(i, 3, float64(c0))
		ds.Set(i, 4, float64(c1))
		labels[i] = ((int(sum*2) % classes) + classes + c0 + c1) % classes
	}
	return ds, labels
}

// TestTrainWorkersDeterminism is the engine's core guarantee: the same
// data, labels and Config produce byte-identical serialized models at
// any Workers value. Workers=1 runs everything inline; Workers=8 uses
// the class-parallel axis; Workers=16 over 2 classes with Subsample=1
// forces the feature-chunk axis (several chunks, segments above the
// parallel gate).
func TestTrainWorkersDeterminism(t *testing.T) {
	ds, labels := engineFixture(3000, 5, 41)
	base := DefaultConfig()
	base.NumRounds = 8

	serialize := func(m *Model) []byte {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	train := func(workers int) []byte {
		cfg := base
		cfg.Workers = workers
		m, err := TrainClassifier(ds, labels, 5, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return serialize(m)
	}
	ref := train(1)
	for _, w := range []int{2, 8} {
		if got := train(w); !bytes.Equal(ref, got) {
			t.Fatalf("Workers=%d produced a different serialized model than Workers=1", w)
		}
	}

	// Feature-chunk axis: more workers than classes.
	dsBig, labelsBig := engineFixture(5000, 2, 42)
	cfg := base
	cfg.Subsample = 1 // keep node segments above the parallel gate
	cfg.Workers = 1
	m1, err := TrainClassifier(dsBig, labelsBig, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 16
	m16, err := TrainClassifier(dsBig, labelsBig, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialize(m1), serialize(m16)) {
		t.Fatal("feature-parallel training (Workers=16, 2 classes) diverged from Workers=1")
	}

	// Regressor path.
	targets := make([]float64, dsBig.N)
	for i := range targets {
		targets[i] = dsBig.Cols[0][i]*3 + dsBig.Cols[1][i]
	}
	cfg.Workers = 1
	r1, err := TrainRegressor(dsBig, targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 16
	r16, err := TrainRegressor(dsBig, targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialize(r1), serialize(r16)) {
		t.Fatal("feature-parallel regression (Workers=16) diverged from Workers=1")
	}

	// The round pass: 3·4096+17 rows split into 1, 2 and 3 row ranges
	// that straddle the loss chunks, the last chunk partial; TrainLoss
	// and every tree must not notice.
	dsOdd, labelsOdd := engineFixture(3*lossChunk+17, 4, 45)
	cfg = base
	cfg.NumRounds = 4
	var odd []byte
	for _, w := range []int{1, 2, 3} {
		cfg.Workers = w
		m, err := TrainClassifier(dsOdd, labelsOdd, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := serialize(m); odd == nil {
			odd = got
		} else if !bytes.Equal(odd, got) {
			t.Fatalf("Workers=%d over %d rows produced a different serialized model than Workers=1", w, dsOdd.N)
		}
	}

	// The class schedule: 15 classes over 2 and 4 class workers leave
	// uneven tails, and each worker takes whichever class is next, so
	// which grower grows which class changes from run to run.
	ds15, labels15 := engineFixture(2500, 15, 47)
	cfg = base
	cfg.NumRounds = 3
	var fifteen []byte
	for _, w := range []int{1, 2, 4} {
		cfg.Workers = w
		m, err := TrainClassifier(ds15, labels15, 15, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := serialize(m); fifteen == nil {
			fifteen = got
		} else if !bytes.Equal(fifteen, got) {
			t.Fatalf("Workers=%d over 15 classes produced a different serialized model than Workers=1", w)
		}
	}
}

// TestOutOfSampleRowsTakeTheirLeaf: grow routes the out-of-sample rows
// through every split as it partitions the sample, so each one's
// leafOut is the value Tree.Predict finds on its raw row, a float walk
// that shares no code with the partition.
func TestOutOfSampleRowsTakeTheirLeaf(t *testing.T) {
	ds, labels := engineFixture(3000, 3, 46)
	cfg := DefaultConfig()
	cfg.Subsample = 0.5
	eng := newHistEngine(ds, buildBinning(ds, cfg.MaxBins, cfg.workers()), cfg, 3)
	tg := newTreeGrower(eng, ds.N)
	tg.gh, tg.leafOut = make([]float64, 2*ds.N), make([]float64, ds.N)
	for r, y := range labels {
		p, target := 1.0/3, 0.0
		if y == 0 {
			target = 1
		}
		tg.gh[2*r], tg.gh[2*r+1] = p-target, p*(1-p)
		tg.leafOut[r] = math.NaN()
	}
	rows, out := sampleRows(ds.N, cfg.Subsample, rand.New(rand.NewSource(cfg.Seed)), nil, nil)
	tree := &Tree{}
	tg.grow(rows, out, tree)

	kinds := map[uint8]int{}
	for _, nd := range tree.Nodes {
		if !nd.IsLeaf {
			kinds[nd.Kind]++
		}
	}
	if kinds[uint8(Numeric)] == 0 || kinds[uint8(Categorical)] == 0 {
		t.Fatalf("the tree needs numeric and categorical splits, has %v", kinds)
	}
	if len(out) < ds.N/3 {
		t.Fatalf("only %d of %d rows out of sample", len(out), ds.N)
	}
	row := make([]float64, ds.Schema.NumFeatures())
	for _, r := range out {
		row = ds.Row(int(r), row)
		if want := tree.Predict(row); tg.leafOut[r] != want {
			t.Fatalf("out-of-sample row %d: leafOut %v, Tree.Predict %v", r, tg.leafOut[r], want)
		}
	}
}

// TestWorkersExcludedFromSerialization: Workers is an execution knob,
// not part of the model, so it must not appear in the model JSON (a
// serialized model trained at Workers=8 must equal one at Workers=1).
func TestWorkersExcludedFromSerialization(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 8
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("workers")) || bytes.Contains(b, []byte("Workers")) {
		t.Fatalf("Workers leaked into Config JSON: %s", b)
	}
}

// sameLogits holds m's reference (Model.Logits), every forest entry and
// Tree.Predict summed over trees, the trees training grew for m, to the
// same logits, bit for bit, on every row of ds.
func sameLogits(t *testing.T, m *Model, trees [][]*Tree, ds *Dataset) {
	t.Helper()
	f := Compiled(t, m)
	k, nf := f.NumClasses, f.NumFeatures
	rows := make([][]float64, ds.N)
	tile := make([]uint16, ds.N*nf)
	for i := range rows {
		rows[i] = ds.Row(i, nil)
		f.binRow(rows[i], tile[i*nf:(i+1)*nf])
	}
	_, batch := f.PredictClassBatch(rows, nil, nil)
	_, binned := f.PredictClassBinned(tile, nil, nil)
	var one []float64
	for i, row := range rows {
		want := TreeLogits(m.InitScores, trees, row)
		one = f.Logits(row, one)
		for name, got := range map[string][]float64{"Model.Logits": m.Logits(row), "Forest.Logits": one,
			"PredictClassBatch": batch[i*k : (i+1)*k], "PredictClassBinned": binned[i*k : (i+1)*k]} {
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("row %d class %d: %s %v, the trees %v", i, c, name, got[c], want[c])
				}
			}
		}
	}
}

// TestEngineMatchesNaiveParity: the histogram-subtraction engine and
// the legacy per-node-rebuild trainer differ in floating-point detail
// (sibling histograms come from subtraction, child sums from scan
// prefixes), so trees may diverge — but on a fixed fixture both must
// learn the problem equally well. Each model's reference, forest and
// trees agree bit for bit.
func TestEngineMatchesNaiveParity(t *testing.T) {
	ds, labels := engineFixture(4000, 5, 43)
	cfg := DefaultConfig()
	cfg.NumRounds = 20

	engine, engineTrees, err := withTrees(trainClassifier(ds, labels, 5, cfg))
	if err != nil {
		t.Fatal(err)
	}
	naive, naiveTrees, err := withTrees(trainClassifierNaive(ds, labels, 5, cfg))
	if err != nil {
		t.Fatal(err)
	}

	accuracy := func(m *Model) float64 {
		correct := 0
		row := make([]float64, ds.Schema.NumFeatures())
		for i := 0; i < ds.N; i++ {
			row = ds.Row(i, row)
			if m.PredictClass(row) == labels[i] {
				correct++
			}
		}
		return float64(correct) / float64(ds.N)
	}
	sameLogits(t, engine, engineTrees, ds)
	sameLogits(t, naive, naiveTrees, ds)
	accEngine, accNaive := accuracy(engine), accuracy(naive)
	if math.Abs(accEngine-accNaive) > 0.02 {
		t.Errorf("train accuracy diverged: engine %.4f vs naive %.4f", accEngine, accNaive)
	}
	lossEngine := engine.TrainLoss[len(engine.TrainLoss)-1]
	lossNaive := naive.TrainLoss[len(naive.TrainLoss)-1]
	if math.Abs(lossEngine-lossNaive) > 0.05*math.Max(lossEngine, lossNaive) {
		t.Errorf("final train loss diverged: engine %.5f vs naive %.5f", lossEngine, lossNaive)
	}
	// Both trainers consume the sampling RNG identically, and the
	// initial scores depend only on label counts.
	for k, v := range engine.InitScores {
		if v != naive.InitScores[k] {
			t.Errorf("init score %d: engine %g vs naive %g", k, v, naive.InitScores[k])
		}
	}

	// Both trainers share the minimum-split-gain Gamma rule, so parity
	// must also hold under a nonzero Gamma (fewer, stronger splits).
	cfg.Gamma = 0.3
	engineG, err := TrainClassifier(ds, labels, 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	naiveG, err := newModel(trainClassifierNaive(ds, labels, 5, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if ae, an := accuracy(engineG), accuracy(naiveG); math.Abs(ae-an) > 0.02 {
		t.Errorf("Gamma=0.3 train accuracy diverged: engine %.4f vs naive %.4f", ae, an)
	}
}

// TestEngineSubsampleOutOfSampleReplay: with Subsample < 1 the logit
// update must cover out-of-sample rows too (their leaves come from the
// partition), so a
// model trained at 0.7 must still learn the signal and keep finite
// monotone-ish loss.
func TestEngineSubsampleOutOfSampleReplay(t *testing.T) {
	ds, labels := xorDataset(2000, 44)
	cfg := DefaultConfig()
	cfg.NumRounds = 30
	cfg.Subsample = 0.7
	m, err := TrainClassifier(ds, labels, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	row := make([]float64, 2)
	for i := 0; i < ds.N; i++ {
		row = ds.Row(i, row)
		if m.PredictClass(row) == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(ds.N); acc < 0.95 {
		t.Errorf("subsampled XOR accuracy = %.3f, want >= 0.95", acc)
	}
	if first, last := m.TrainLoss[0], m.TrainLoss[len(m.TrainLoss)-1]; last >= first*0.5 {
		t.Errorf("loss only fell from %g to %g", first, last)
	}
}

// TestTrainingStopsItsCrew: the goroutines a training starts for its
// rounds, which take class trees and, past lossChunk rows, row-pass
// ranges, have exited by the time it returns.
func TestTrainingStopsItsCrew(t *testing.T) {
	ds, labels := engineFixture(2*lossChunk, 3, 5)
	cfg := DefaultConfig()
	cfg.NumRounds = 3
	for _, workers := range []int{2, 4} {
		cfg.Workers = workers
		checkGoroutines := leakcheck.Goroutines(t, fmt.Sprintf("training with %d workers", workers))
		if _, err := TrainClassifier(ds, labels, 3, cfg); err != nil {
			t.Fatal(err)
		}
		checkGoroutines()
	}
}
