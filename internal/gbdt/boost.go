package gbdt

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
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

// Model is a trained gradient-boosted trees model: its header and the
// Forest it was compiled to. For classification a round grows one tree
// per class and prediction is softmax over accumulated logits; for
// regression NumClasses == 1. Trees exist only while a trainer or Load
// runs: both end by compiling them (newModel), and the forest is all a
// model keeps of them. A model is fixed once built; pass it by pointer.
// Its file's shape is modelFile's.
type Model struct {
	Schema     *Schema
	Config     Config
	NumClasses int
	InitScores []float64
	// TrainLoss records the training loss after each round (logloss
	// for classification, MSE for regression) — used by tests and the
	// model-analysis experiments.
	TrainLoss []float64

	forest *Forest
}

// newModel compiles trees, trees[r][k] the round-r tree for class k,
// into m's forest, refusing a model that fails validation or that the
// binned layout cannot hold (*LimitError); a trainer's err passes through.
func newModel(m *Model, trees [][]*Tree, err error) (*Model, error) {
	if err == nil {
		m.forest, err = compile(m, trees)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
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
	return newModel(trainClassifier(ds, labels, numClasses, cfg))
}

// trainClassifier is TrainClassifier up to the compile (newModel).
func trainClassifier(ds *Dataset, labels []int, numClasses int, cfg Config) (*Model, [][]*Tree, error) {
	counts, err := validateClassifierArgs(ds, labels, numClasses, cfg)
	if err != nil {
		return nil, nil, err
	}
	n := ds.N
	k := numClasses
	m := &Model{
		Schema:     ds.Schema,
		Config:     cfg,
		NumClasses: k,
		InitScores: initScoresFromCounts(counts, n, k),
	}

	bins := buildBinning(ds, cfg.MaxBins, cfg.workers())
	eng := newHistEngine(ds, bins, cfg, k)
	rng := rand.New(rand.NewSource(cfg.Seed))

	ct := &classTrainer{cr: newClassRound(eng, labels, m.InitScores), growers: make([]*treeGrower, eng.classWorkers)}
	for w := range ct.growers {
		ct.growers[w] = newTreeGrower(eng, n)
	}
	c := newCrew(eng.workers)
	defer c.stop()
	grow := ct.growClasses // made once: a method value made per round goes to the heap
	trees := newTreeSlab(cfg.NumRounds, k)
	rows, outBuf := sampleBuffers(n)
	m.TrainLoss = make([]float64, 0, cfg.NumRounds)
	for round, roundTrees := range trees {
		rows, outBuf = sampleRows(n, cfg.Subsample, rng, rows, outBuf)
		// The pass applies last round's trees, whose leafOut covers every
		// row; the last round's are never applied, as no loss reads them.
		loss := ct.cr.run(c, round > 0)
		m.TrainLoss = append(m.TrainLoss, loss/float64(n))

		ct.rows, ct.out, ct.round = rows, outBuf, roundTrees
		ct.next.Store(0)
		c.run(grow)
	}
	return m, trees, nil
}

// classTrainer is a classifier training's round state, which the crew's
// class workers read: each takes the next class not yet taken, so one
// slow tree does not hold back a worker's later classes. Classes are
// independent given the round's gradients, and a grower's scratch never
// carries into its next tree, so the schedule cannot affect results.
type classTrainer struct {
	cr      *classRound
	growers []*treeGrower // one per class worker
	// rows and out are the round's sample and its complement, and round
	// its trees, by class.
	rows, out []int32
	round     []*Tree
	next      atomic.Int32
}

// growClasses is class worker w's part of a round. A crew wider than the
// class workers leaves its other workers idle.
func (ct *classTrainer) growClasses(w int) {
	if w >= len(ct.growers) {
		return
	}
	tg := ct.growers[w]
	for k := int(ct.next.Add(1)) - 1; k < len(ct.round); k = int(ct.next.Add(1)) - 1 {
		tg.gh, tg.leafOut = ct.cr.gh[k], ct.cr.leafOut[k]
		tg.grow(ct.rows, ct.out, ct.round[k])
	}
}

// newTreeSlab returns rounds rows of k trees, trees[r][c] the round-r
// tree for class c, cut from one array of trees and one of pointers.
func newTreeSlab(rounds, k int) [][]*Tree {
	ts, ptrs, trees := make([]Tree, rounds*k), make([]*Tree, rounds*k), make([][]*Tree, rounds)
	for i := range ptrs {
		ptrs[i] = &ts[i]
	}
	for r := range trees {
		trees[r] = ptrs[r*k : (r+1)*k : (r+1)*k]
	}
	return trees
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
	bins := buildBinning(ds, cfg.MaxBins, cfg.workers())
	eng := newHistEngine(ds, bins, cfg, 1)
	rng := rand.New(rand.NewSource(cfg.Seed))
	tg := newTreeGrower(eng, n)
	tg.gh, tg.leafOut = make([]float64, 2*n), make([]float64, n)

	preds := make([]float64, n)
	for i := range preds {
		preds[i] = mean
	}
	gh := tg.gh
	for i := 0; i < n; i++ {
		gh[2*i+1] = 1 // squared loss: every hessian is 1
	}
	rows, outBuf := sampleBuffers(n)
	trees := newTreeSlab(cfg.NumRounds, 1)
	m.TrainLoss = make([]float64, 0, cfg.NumRounds)
	for _, round := range trees {
		var loss float64
		for i := 0; i < n; i++ {
			r := preds[i] - targets[i]
			loss += r * r
			gh[2*i] = r
		}
		m.TrainLoss = append(m.TrainLoss, loss/float64(n))
		rows, outBuf = sampleRows(n, cfg.Subsample, rng, rows, outBuf)
		tg.grow(rows, outBuf, round[0])
		for i, v := range tg.leafOut {
			preds[i] += v
		}
	}
	return newModel(m, trees, nil)
}

// TrainClassifierNaive is the original per-node-rebuild trainer, kept
// as the reference implementation: it re-materializes every node's
// histograms from rows, allocates per node, and replays each round with
// per-row tree.Predict. It is the parity reference only
// (TestEngineMatchesNaiveParity holds the engine to it); callers that
// want a model use TrainClassifier.
func TrainClassifierNaive(ds *Dataset, labels []int, numClasses int, cfg Config) (*Model, error) {
	return newModel(trainClassifierNaive(ds, labels, numClasses, cfg))
}

// trainClassifierNaive is TrainClassifierNaive up to the compile.
func trainClassifierNaive(ds *Dataset, labels []int, numClasses int, cfg Config) (*Model, [][]*Tree, error) {
	counts, err := validateClassifierArgs(ds, labels, numClasses, cfg)
	if err != nil {
		return nil, nil, err
	}
	n := ds.N
	m := &Model{
		Schema:     ds.Schema,
		Config:     cfg,
		NumClasses: numClasses,
		InitScores: initScoresFromCounts(counts, n, numClasses),
	}

	bins := buildBinning(ds, cfg.MaxBins, cfg.workers())
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
	trees := make([][]*Tree, 0, cfg.NumRounds)
	var rows, outs []int32

	for round := 0; round < cfg.NumRounds; round++ {
		rows, outs = sampleRows(n, cfg.Subsample, rng, rows, outs)
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
		trees = append(trees, roundTrees)
	}
	return m, trees, nil
}

// sampleBuffers returns the buffers of sampleRows for n rows, cut from
// one array: a round's sample and its complement never outgrow them.
func sampleBuffers(n int) (in, out []int32) {
	buf := make([]int32, 2*n)
	return buf[:0:n], buf[n:n]
}

// sampleRows splits [0, n) into the round's ascending row sample and
// its ascending complement, refilling in and out, the previous round's.
func sampleRows(n int, frac float64, rng *rand.Rand, in, out []int32) ([]int32, []int32) {
	in, out = in[:0], out[:0]
	for i := int32(0); i < int32(n); i++ {
		if frac >= 1 || rng.Float64() < frac {
			in = append(in, i)
		} else {
			out = append(out, i)
		}
	}
	if len(in) == 0 { // out is every row
		r := rng.Intn(n)
		in, out = append(in, int32(r)), slices.Delete(out, r, r+1)
	}
	return in, out
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

// Logits computes the raw class scores for a feature row. It is the
// reference the forest's entries are held to (CategoryModel.Predict
// runs on it): a float walk over the forest's nodes (Forest.walk) that
// compares raw values with the split thresholds and looks category
// values up in the split sets, and shares no binning or traversal code
// with the entries. Each class sums its init score and then its trees
// in round order, so the entries' logits equal these bit for bit.
func (m *Model) Logits(row []float64) []float64 {
	f := m.forest
	out := slices.Clone(m.InitScores)
	for k := range out {
		for _, tr := range f.trees[f.classStart[k]:f.classStart[k+1]] {
			out[k] += f.walk(tr, row)
		}
	}
	return out
}

// PredictClass returns the argmax class of Logits.
func (m *Model) PredictClass(row []float64) int { return argmax(m.Logits(row)) }

// NumericSplitThresholds returns, per feature, the sorted distinct
// thresholds of every numeric split in the model (nil for features the
// model never splits numerically, including all categorical features).
// These are the only values a feature row is ever compared against
// during inference, so quantizing a row to the inter-threshold interval
// each value falls in preserves every tree routing decision exactly —
// the contract behind client-side pre-binning on the serving wire.
//
// They are the forest's edges, which its binner keeps too: read them,
// do not change them.
func (m *Model) NumericSplitThresholds() [][]float64 { return m.forest.edges }

// ResidentBytes returns the bytes the model holds on the heap, counted
// from the lengths of its arrays and its forest's; the schema, which a
// bundle's encoder shares, is left out. The allocator rounds each array
// up to a size class on top of this, a few percent.
func (m *Model) ResidentBytes() int {
	return int(unsafe.Sizeof(*m)) + 8*(len(m.InitScores)+len(m.TrainLoss)) + m.forest.ResidentBytes()
}
