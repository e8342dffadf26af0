package gbdt

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"unsafe"
)

// Config holds the boosting hyperparameters. The paper's category models
// use gradient-boosted trees with at most 300 trees and max depth 6.
type Config struct {
	// NumRounds is the number of boosting rounds (per round a
	// classifier grows one tree per class).
	NumRounds int `json:"num_rounds"`
	MaxDepth  int `json:"max_depth"`
	// LearningRate shrinks each tree's contribution.
	LearningRate   float64 `json:"learning_rate"`
	MinSamplesLeaf int     `json:"min_samples_leaf"`
	// Lambda is the L2 regularizer on leaf weights.
	Lambda float64 `json:"lambda"`
	// Gamma is the minimum gain a split must reach to be made at all
	// (candidates above it compete by highest gain) — both trainers
	// share this rule.
	Gamma float64 `json:"gamma"`
	// Subsample is the row-sampling fraction per tree (0 < s <= 1).
	Subsample float64 `json:"subsample"`
	// MaxBins bounds histogram bins per numeric feature.
	MaxBins int   `json:"max_bins"`
	Seed    int64 `json:"seed"`
	// Workers caps training parallelism (class trees within a round,
	// feature scans within a node). 0 means GOMAXPROCS. Workers is an
	// execution detail, not part of the model: the same data, Seed and
	// hyperparameters produce a bit-identical model at any Workers
	// value, so it is excluded from serialization.
	Workers int `json:"-"`
}

// DefaultConfig returns hyperparameters that train the paper-scale
// category models in seconds on a laptop-scale trace.
func DefaultConfig() Config {
	return Config{
		NumRounds:      60,
		MaxDepth:       6,
		LearningRate:   0.15,
		MinSamplesLeaf: 20,
		Lambda:         1.0,
		Gamma:          0.0,
		Subsample:      0.8,
		MaxBins:        64,
		Seed:           1,
	}
}

func (c *Config) validate() error {
	switch {
	case c.NumRounds <= 0:
		return fmt.Errorf("gbdt: NumRounds must be positive, got %d", c.NumRounds)
	case c.MaxDepth <= 0:
		return fmt.Errorf("gbdt: MaxDepth must be positive, got %d", c.MaxDepth)
	case c.LearningRate <= 0 || c.LearningRate > 1:
		return fmt.Errorf("gbdt: LearningRate must be in (0, 1], got %g", c.LearningRate)
	case c.Subsample <= 0 || c.Subsample > 1:
		return fmt.Errorf("gbdt: Subsample must be in (0, 1], got %g", c.Subsample)
	case c.MinSamplesLeaf < 1:
		return fmt.Errorf("gbdt: MinSamplesLeaf must be >= 1, got %d", c.MinSamplesLeaf)
	case c.MaxBins < 2:
		return fmt.Errorf("gbdt: MaxBins must be >= 2, got %d", c.MaxBins)
	case c.Workers < 0:
		return fmt.Errorf("gbdt: Workers must be >= 0, got %d", c.Workers)
	}
	return nil
}

// Model is a trained gradient-boosted trees model. For classification,
// Trees[r][k] is the round-r tree for class k and prediction is softmax
// over accumulated logits; for regression NumClasses == 1. A model is
// fixed once built: what is derived from its trees is derived once
// (NumericSplitThresholds), so pass it by pointer and build a new Model
// rather than editing Trees.
type Model struct {
	Schema     *Schema   `json:"schema"`
	Config     Config    `json:"config"`
	NumClasses int       `json:"num_classes"`
	InitScores []float64 `json:"init_scores"`
	Trees      [][]*Tree `json:"trees"`
	// TrainLoss records the training loss after each round (logloss
	// for classification, MSE for regression) — used by tests and the
	// model-analysis experiments.
	TrainLoss []float64 `json:"train_loss,omitempty"`

	thresholdsOnce sync.Once
	thresholds     [][]float64
}

// validateClassifierArgs checks the shared TrainClassifier* inputs and
// returns the per-class label counts.
func validateClassifierArgs(ds *Dataset, labels []int, numClasses int, cfg Config) ([]float64, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if numClasses < 2 {
		return nil, fmt.Errorf("gbdt: need at least 2 classes, got %d", numClasses)
	}
	if len(labels) != ds.N {
		return nil, fmt.Errorf("gbdt: %d labels for %d rows", len(labels), ds.N)
	}
	counts := make([]float64, numClasses)
	for i, y := range labels {
		if y < 0 || y >= numClasses {
			return nil, fmt.Errorf("gbdt: label %d out of range at row %d", y, i)
		}
		counts[y]++
	}
	if ds.N == 0 {
		return nil, fmt.Errorf("gbdt: empty dataset")
	}
	return counts, nil
}

// initScoresFromCounts returns the Laplace-smoothed log-prior scores.
func initScoresFromCounts(counts []float64, n, numClasses int) []float64 {
	scores := make([]float64, numClasses)
	for k := range scores {
		p := (counts[k] + 1) / (float64(n) + float64(numClasses))
		scores[k] = math.Log(p)
	}
	return scores
}

// TrainClassifier fits a multiclass softmax model. labels must be in
// [0, numClasses).
//
// Training runs on the histogram-subtraction engine (hist.go): trees
// grow depth-first over a shared row arena, sibling histograms are
// derived by parent-minus-child subtraction, and work parallelizes over
// class trees and feature chunks up to Config.Workers goroutines. The
// result is deterministic: bit-identical for the same inputs at any
// Workers value.
func TrainClassifier(ds *Dataset, labels []int, numClasses int, cfg Config) (*Model, error) {
	counts, err := validateClassifierArgs(ds, labels, numClasses, cfg)
	if err != nil {
		return nil, err
	}
	n := ds.N
	k := numClasses
	m := &Model{
		Schema:     ds.Schema,
		Config:     cfg,
		NumClasses: k,
		InitScores: initScoresFromCounts(counts, n, k),
	}

	bins := buildBinning(ds, cfg.MaxBins)
	eng := newHistEngine(ds, bins, cfg, k)
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Flat, reusable round state: logits and probabilities are n x k
	// row-major; sampleEpoch marks the rows in the current round's
	// subsample (stamped, so no per-round clearing).
	logits := make([]float64, n*k)
	for i := 0; i < n; i++ {
		copy(logits[i*k:(i+1)*k], m.InitScores)
	}
	probMat := make([]float64, n*k)
	lossPartials := make([]float64, (n+lossChunk-1)/lossChunk)
	var outBuf []int32
	growers := make([]*treeGrower, eng.classWorkers)
	for w := range growers {
		growers[w] = newTreeGrower(eng, n)
	}

	for round := 0; round < cfg.NumRounds; round++ {
		rows := sampleRows(n, cfg.Subsample, rng)
		outBuf = outOfSample(rows, n, outBuf)
		loss := eng.softmaxLossInto(logits, probMat, labels, k, lossPartials)
		m.TrainLoss = append(m.TrainLoss, loss/float64(n))

		roundTrees := make([]*Tree, k)
		rowsOut := outBuf
		eng.forClasses(k, func(w, kc int) {
			tg := growers[w]
			g, h := tg.g, tg.h
			for _, r := range rows {
				p := probMat[int(r)*k+kc]
				y := 0.0
				if labels[r] == kc {
					y = 1
				}
				g[r] = p - y
				h[r] = math.Max(p*(1-p), 1e-6)
			}
			tree := tg.grow(rows, g, h)
			roundTrees[kc] = tree
			// Class kc owns logit column kc: in-sample rows were
			// assigned their leaf during growth, out-of-sample rows
			// take one binned traversal.
			for _, r := range rows {
				logits[int(r)*k+kc] += tg.leafOut[r]
			}
			for _, r := range rowsOut {
				logits[int(r)*k+kc] += tg.predictBinned(tree, int(r))
			}
		})
		m.Trees = append(m.Trees, roundTrees)
	}
	return m, nil
}

// outOfSample returns the ascending complement of the ascending sampled
// row list over [0, n), reusing buf.
func outOfSample(rows []int32, n int, buf []int32) []int32 {
	buf = buf[:0]
	j := 0
	for i := int32(0); i < int32(n); i++ {
		if j < len(rows) && rows[j] == i {
			j++
			continue
		}
		buf = append(buf, i)
	}
	return buf
}

// TrainRegressor fits a squared-loss regression model on the histogram
// engine (feature-parallel up to Config.Workers; deterministic at any
// worker count).
func TrainRegressor(ds *Dataset, targets []float64, cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if len(targets) != ds.N {
		return nil, fmt.Errorf("gbdt: %d targets for %d rows", len(targets), ds.N)
	}
	n := ds.N
	if n == 0 {
		return nil, fmt.Errorf("gbdt: empty dataset")
	}
	var mean float64
	for _, t := range targets {
		mean += t
	}
	mean /= float64(n)

	m := &Model{
		Schema:     ds.Schema,
		Config:     cfg,
		NumClasses: 1,
		InitScores: []float64{mean},
	}
	bins := buildBinning(ds, cfg.MaxBins)
	eng := newHistEngine(ds, bins, cfg, 1)
	rng := rand.New(rand.NewSource(cfg.Seed))
	tg := newTreeGrower(eng, n)

	preds := make([]float64, n)
	for i := range preds {
		preds[i] = mean
	}
	g, h := tg.g, tg.h
	for i := range h {
		h[i] = 1
	}
	var outBuf []int32
	for round := 0; round < cfg.NumRounds; round++ {
		var loss float64
		for i := 0; i < n; i++ {
			r := preds[i] - targets[i]
			loss += r * r
			g[i] = r
		}
		m.TrainLoss = append(m.TrainLoss, loss/float64(n))
		rows := sampleRows(n, cfg.Subsample, rng)
		outBuf = outOfSample(rows, n, outBuf)
		tree := tg.grow(rows, g, h)
		for _, r := range rows {
			preds[r] += tg.leafOut[r]
		}
		for _, r := range outBuf {
			preds[r] += tg.predictBinned(tree, int(r))
		}
		m.Trees = append(m.Trees, []*Tree{tree})
	}
	return m, nil
}

// TrainClassifierNaive is the original per-node-rebuild trainer, kept
// as the reference implementation: it re-materializes every node's
// histograms from rows, allocates per node, and replays each round with
// per-row tree.Predict. It is the parity reference only
// (TestEngineMatchesNaiveParity holds the engine to it); callers that
// want a model use TrainClassifier.
func TrainClassifierNaive(ds *Dataset, labels []int, numClasses int, cfg Config) (*Model, error) {
	counts, err := validateClassifierArgs(ds, labels, numClasses, cfg)
	if err != nil {
		return nil, err
	}
	n := ds.N
	m := &Model{
		Schema:     ds.Schema,
		Config:     cfg,
		NumClasses: numClasses,
		InitScores: initScoresFromCounts(counts, n, numClasses),
	}

	bins := buildBinning(ds, cfg.MaxBins)
	gr := &grower{bins: bins, schema: ds.Schema, cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed))

	logits := make([][]float64, n)
	for i := range logits {
		logits[i] = make([]float64, numClasses)
		copy(logits[i], m.InitScores)
	}
	probs := make([]float64, numClasses)
	g := make([]float64, n)
	h := make([]float64, n)

	for round := 0; round < cfg.NumRounds; round++ {
		rows := sampleRows(n, cfg.Subsample, rng)
		roundTrees := make([]*Tree, numClasses)
		var loss float64
		// Compute current probabilities once per row, reusing them for
		// all class trees of this round.
		probMat := make([][]float64, n)
		for i := 0; i < n; i++ {
			softmax(logits[i], probs)
			probMat[i] = append([]float64(nil), probs...)
			loss -= math.Log(math.Max(probMat[i][labels[i]], 1e-15))
		}
		m.TrainLoss = append(m.TrainLoss, loss/float64(n))

		for k := 0; k < numClasses; k++ {
			for i := 0; i < n; i++ {
				p := probMat[i][k]
				y := 0.0
				if labels[i] == k {
					y = 1
				}
				g[i] = p - y
				h[i] = math.Max(p*(1-p), 1e-6)
			}
			roundTrees[k] = gr.growTree(rows, g, h)
		}
		// Apply updates after all class trees are grown (standard
		// one-vs-rest round semantics).
		row := make([]float64, ds.Schema.NumFeatures())
		for i := 0; i < n; i++ {
			row = ds.Row(i, row)
			for k := 0; k < numClasses; k++ {
				logits[i][k] += roundTrees[k].Predict(row)
			}
		}
		m.Trees = append(m.Trees, roundTrees)
	}
	return m, nil
}

func sampleRows(n int, frac float64, rng *rand.Rand) []int32 {
	if frac >= 1 {
		rows := make([]int32, n)
		for i := range rows {
			rows[i] = int32(i)
		}
		return rows
	}
	rows := make([]int32, 0, int(float64(n)*frac)+1)
	for i := 0; i < n; i++ {
		if rng.Float64() < frac {
			rows = append(rows, int32(i))
		}
	}
	if len(rows) == 0 {
		rows = append(rows, int32(rng.Intn(n)))
	}
	return rows
}

func softmax(logits, out []float64) {
	maxL := logits[0]
	for _, l := range logits[1:] {
		if l > maxL {
			maxL = l
		}
	}
	var sum float64
	for i, l := range logits {
		e := math.Exp(l - maxL)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}

// Logits computes the raw class scores for a feature row.
func (m *Model) Logits(row []float64) []float64 {
	out := make([]float64, m.NumClasses)
	copy(out, m.InitScores)
	for _, round := range m.Trees {
		for k, tree := range round {
			out[k] += tree.Predict(row)
		}
	}
	return out
}

// PredictProba returns softmax class probabilities. Panics if the model
// is a regressor.
func (m *Model) PredictProba(row []float64) []float64 {
	if m.NumClasses < 2 {
		panic("gbdt: PredictProba on a regression model")
	}
	logits := m.Logits(row)
	out := make([]float64, m.NumClasses)
	softmax(logits, out)
	return out
}

// PredictClass returns the argmax class.
func (m *Model) PredictClass(row []float64) int {
	logits := m.Logits(row)
	best, bestV := 0, logits[0]
	for k, v := range logits[1:] {
		if v > bestV {
			best, bestV = k+1, v
		}
	}
	return best
}

// FeatureImportance returns gain-based importances normalized to sum to
// 1 (all zeros if no split was ever made).
func (m *Model) FeatureImportance() []float64 {
	imp := make([]float64, m.Schema.NumFeatures())
	for _, round := range m.Trees {
		for _, tree := range round {
			tree.AccumulateImportance(imp)
		}
	}
	var total float64
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}

// NumericSplitThresholds returns, per feature, the sorted distinct
// thresholds of every numeric split in the model (nil for features the
// model never splits numerically, including all categorical features).
// These are the only values a feature row is ever compared against
// during inference, so quantizing a row to the inter-threshold interval
// each value falls in preserves every tree routing decision exactly —
// the contract behind client-side pre-binning on the serving wire.
//
// The trees are walked on the first call only; every call returns the
// same arrays, which the forest and the binner of the model keep too:
// read them, do not change them.
func (m *Model) NumericSplitThresholds() [][]float64 {
	m.thresholdsOnce.Do(func() { m.thresholds = m.numericSplitThresholds() })
	return m.thresholds
}

func (m *Model) numericSplitThresholds() [][]float64 {
	out := make([][]float64, m.Schema.NumFeatures())
	for _, round := range m.Trees {
		for _, tree := range round {
			for i := range tree.Nodes {
				if n := &tree.Nodes[i]; !n.IsLeaf && n.Kind == uint8(Numeric) {
					out[n.Feature] = append(out[n.Feature], n.Threshold)
				}
			}
		}
	}
	for f, thresholds := range out {
		slices.Sort(thresholds)
		// The copy sheds the slots of the splits that shared a threshold.
		out[f] = slices.Clone(slices.Compact(thresholds))
	}
	return out
}

// ResidentBytes returns the bytes the model holds on the heap, counted
// from the lengths of its trees and of their split thresholds (derived
// here if they were not yet); the schema, which a bundle's encoder
// shares, is left out. The allocator rounds each array up to a size
// class on top of this, a few percent.
func (m *Model) ResidentBytes() int {
	n := int(unsafe.Sizeof(*m)) + 8*(len(m.InitScores)+len(m.TrainLoss))
	for _, round := range m.Trees {
		n += int(unsafe.Sizeof(round)) + int(unsafe.Sizeof(round[0]))*len(round)
		for _, tree := range round {
			n += int(unsafe.Sizeof(*tree)) + int(unsafe.Sizeof(Node{}))*len(tree.Nodes) + 4*len(tree.cats)
		}
	}
	for _, thresholds := range m.NumericSplitThresholds() {
		n += int(unsafe.Sizeof(thresholds)) + 8*len(thresholds)
	}
	return n
}

// NumTrees returns the total number of trees in the model.
func (m *Model) NumTrees() int {
	n := 0
	for _, round := range m.Trees {
		n += len(round)
	}
	return n
}
