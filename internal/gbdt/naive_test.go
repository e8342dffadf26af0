package gbdt

import (
	"math"
	"math/rand"
	"sort"
)

// The naive reference trainer: the original per-node-rebuild grower,
// kept in the tests as the parity oracle for the histogram engine in
// hist.go (TestEngineMatchesNaiveParity), with Tree.Predict, the walk
// over a tree's own nodes that the forest's entries are checked against.

// trainClassifierNaive re-materializes every node's histograms from
// rows, allocates per node, and replays each round with per-row
// Tree.Predict. It returns the model header and the trees it grew,
// uncompiled: newModel(trainClassifierNaive(...)) is the model.
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

// grower holds the per-training-run state of the legacy trainer: it
// rebuilds every node's histograms from that node's rows and allocates
// per-node row slices. Only trainClassifierNaive runs it; the
// production trainers run the histogram-subtraction engine in hist.go.
type grower struct {
	bins   *binning
	schema *Schema
	cfg    Config
}

// growTree fits one regression tree to gradients g and hessians h over
// the sampled row indices, returning the tree with leaf values already
// scaled by the learning rate.
func (gr *grower) growTree(rows []int32, g, h []float64) *Tree {
	t := &Tree{}
	gr.growNode(t, rows, g, h, 0)
	return t
}

// growNode appends the subtree for rows to t and returns its node index.
func (gr *grower) growNode(t *Tree, rows []int32, g, h []float64, depth int) int {
	var sumG, sumH float64
	for _, i := range rows {
		sumG += g[i]
		sumH += h[i]
	}
	idx := len(t.Nodes)
	t.Nodes = append(t.Nodes, Node{IsLeaf: true})
	leafValue := func() float64 {
		return -sumG / (sumH + gr.cfg.Lambda) * gr.cfg.LearningRate
	}
	if depth >= gr.cfg.MaxDepth || len(rows) < 2*gr.cfg.MinSamplesLeaf {
		t.Nodes[idx].Value = leafValue()
		return idx
	}
	best := gr.bestSplit(rows, g, h, sumG, sumH)
	if !best.found {
		t.Nodes[idx].Value = leafValue()
		return idx
	}
	left, right := gr.partition(rows, best)
	if len(left) < gr.cfg.MinSamplesLeaf || len(right) < gr.cfg.MinSamplesLeaf {
		t.Nodes[idx].Value = leafValue()
		return idx
	}
	// Fill the split node, then grow children (their indices depend on
	// append order; record them after the recursive calls return).
	t.Nodes[idx] = Node{
		Feature: int32(best.feature),
		Kind:    uint8(best.kind),
	}
	if best.kind == Numeric {
		t.Nodes[idx].Threshold = gr.thresholdFor(best)
	} else {
		t.SetLeftCats(idx, best.leftCats)
	}
	l := gr.growNode(t, left, g, h, depth+1)
	r := gr.growNode(t, right, g, h, depth+1)
	t.Nodes[idx].Left = int32(l)
	t.Nodes[idx].Right = int32(r)
	return idx
}

// thresholdFor converts a bin-index split back to a raw-value threshold.
func (gr *grower) thresholdFor(s splitResult) float64 {
	return thresholdForBin(gr.bins, s.feature, s.bin)
}

// partition splits rows according to the chosen split.
func (gr *grower) partition(rows []int32, s splitResult) (left, right []int32) {
	binned := gr.bins.binned[s.feature]
	if s.kind == Numeric {
		for _, i := range rows {
			if int(binned[i]) <= s.bin {
				left = append(left, i)
			} else {
				right = append(right, i)
			}
		}
		return left, right
	}
	inLeft := make(map[int32]bool, len(s.leftCats))
	for _, c := range s.leftCats {
		inLeft[c] = true
	}
	for _, i := range rows {
		if inLeft[binned[i]] {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return left, right
}

// bestSplit scans all features for the highest-gain split of rows.
func (gr *grower) bestSplit(rows []int32, g, h []float64, sumG, sumH float64) splitResult {
	var best splitResult
	lambda := gr.cfg.Lambda
	parentScore := sumG * sumG / (sumH + lambda)
	nf := gr.schema.NumFeatures()
	// Reusable histogram buffers sized to the largest feature.
	maxBins := 0
	for f := 0; f < nf; f++ {
		if gr.bins.numBins[f] > maxBins {
			maxBins = gr.bins.numBins[f]
		}
	}
	histG := make([]float64, maxBins)
	histH := make([]float64, maxBins)
	histN := make([]int, maxBins)

	for f := 0; f < nf; f++ {
		nb := gr.bins.numBins[f]
		if nb < 2 {
			continue
		}
		for b := 0; b < nb; b++ {
			histG[b], histH[b], histN[b] = 0, 0, 0
		}
		binned := gr.bins.binned[f]
		for _, i := range rows {
			b := binned[i]
			histG[b] += g[i]
			histH[b] += h[i]
			histN[b]++
		}
		if gr.schema.Kinds[f] == Numeric {
			gr.scanNumeric(f, nb, histG, histH, histN, sumG, sumH, parentScore, &best)
		} else {
			gr.scanCategorical(f, nb, histG, histH, histN, sumG, sumH, parentScore, &best)
		}
	}
	return best
}

func (gr *grower) scanNumeric(f, nb int, histG, histH []float64, histN []int,
	sumG, sumH, parentScore float64, best *splitResult) {
	// Suffix counts give each candidate's right-side row count in O(1);
	// recomputing them per bin made this scan O(bins^2).
	suffixN := make([]int, nb+1)
	for b := nb - 1; b >= 0; b-- {
		suffixN[b] = suffixN[b+1] + histN[b]
	}
	var gl, hl float64
	var nl int
	for b := 0; b < nb-1; b++ {
		gl += histG[b]
		hl += histH[b]
		nl += histN[b]
		if nl < gr.cfg.MinSamplesLeaf {
			continue
		}
		if suffixN[b+1] < gr.cfg.MinSamplesLeaf {
			break
		}
		gain := splitGain(gl, hl, sumG-gl, sumH-hl, parentScore, gr.cfg.Lambda)
		if gain > gr.cfg.Gamma && gain > 1e-12 && gain > best.gain {
			*best = splitResult{feature: f, kind: Numeric, bin: b, gain: gain, found: true}
		}
	}
}

// scanCategorical orders categories by gradient statistics (the standard
// LightGBM-style trick) and scans prefix splits along that order.
func (gr *grower) scanCategorical(f, nb int, histG, histH []float64, histN []int,
	sumG, sumH, parentScore float64, best *splitResult) {
	type catStat struct {
		id   int32
		g, h float64
		n    int
	}
	cats := make([]catStat, 0, nb)
	for b := 0; b < nb; b++ {
		if histN[b] == 0 {
			continue
		}
		cats = append(cats, catStat{id: int32(b), g: histG[b], h: histH[b], n: histN[b]})
	}
	if len(cats) < 2 {
		return
	}
	sort.Slice(cats, func(a, b int) bool {
		ra := cats[a].g / (cats[a].h + 1)
		rb := cats[b].g / (cats[b].h + 1)
		if ra != rb {
			return ra < rb
		}
		return cats[a].id < cats[b].id
	})
	var gl, hl float64
	nl := 0
	total := 0
	for _, c := range cats {
		total += c.n
	}
	bestPrefix := -1
	for p := 0; p < len(cats)-1; p++ {
		gl += cats[p].g
		hl += cats[p].h
		nl += cats[p].n
		if nl < gr.cfg.MinSamplesLeaf || total-nl < gr.cfg.MinSamplesLeaf {
			continue
		}
		gain := splitGain(gl, hl, sumG-gl, sumH-hl, parentScore, gr.cfg.Lambda)
		if gain > gr.cfg.Gamma && gain > 1e-12 && gain > best.gain {
			*best = splitResult{feature: f, kind: Categorical, gain: gain, found: true}
			bestPrefix = p
		}
	}
	if bestPrefix >= 0 && best.feature == f && best.kind == Categorical {
		left := make([]int32, 0, bestPrefix+1)
		for p := 0; p <= bestPrefix; p++ {
			left = append(left, cats[p].id)
		}
		sort.Slice(left, func(a, b int) bool { return left[a] < left[b] })
		best.leftCats = left
	}
}

// Predict evaluates the tree on a raw feature row.
func (t *Tree) Predict(row []float64) float64 {
	idx := 0
	for {
		n := &t.Nodes[idx]
		if n.IsLeaf {
			return n.Value
		}
		v := row[n.Feature]
		if n.Kind == uint8(Numeric) {
			if math.IsNaN(v) || v <= n.Threshold {
				idx = int(n.Left)
			} else {
				idx = int(n.Right)
			}
		} else {
			if containsCat(t.LeftCats(n), v) {
				idx = int(n.Left)
			} else {
				idx = int(n.Right)
			}
		}
	}
}

func containsCat(cats []int32, v float64) bool {
	if math.IsNaN(v) {
		return false
	}
	return containsCatBin(cats, int32(v))
}

// containsCatBin reports whether sorted cats contains id.
func containsCatBin(cats []int32, id int32) bool {
	lo, hi := 0, len(cats)
	for lo < hi {
		mid := (lo + hi) / 2
		if cats[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(cats) && cats[lo] == id
}
