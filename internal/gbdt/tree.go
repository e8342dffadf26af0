package gbdt

import (
	"math"
	"sort"
)

// Node is one tree node. Leaves carry Value (already scaled by the
// learning rate); internal nodes carry a split. Trees are built only
// while a trainer or Load runs, and compiled into the model's Forest;
// the model file's shape is nodeFile's, not this struct's.
type Node struct {
	// Threshold for numeric splits: x <= Threshold goes left; NaN goes
	// left (missing is treated as -inf).
	Threshold float64
	Value     float64
	Feature   int32
	Left      int32
	Right     int32
	// catLo and catHi bound the node's run of Tree.cats: the sorted
	// category ids a categorical split routes left; ids not listed
	// (including unseen ones) go right.
	catLo, catHi uint32
	// Kind is the split's FeatureKind, held in the byte it needs.
	Kind   uint8
	IsLeaf bool
}

// Tree is a regression tree stored as a node slice; node 0 is the root.
type Tree struct {
	Nodes []Node
	// cats holds the routed-left ids of every categorical split, one
	// sorted run per node in the order the runs were set: one array per
	// tree instead of a slice header on every node and an array per split.
	cats []int32
}

// LeftCats returns the sorted category ids n, a node of t, routes left.
// The slice is the tree's own: read it, do not keep or change it.
func (t *Tree) LeftCats(n *Node) []int32 { return t.cats[n.catLo:n.catHi] }

// SetLeftCats makes a copy of ids, which must be sorted and distinct for
// the tree to validate, the category ids node i routes left. The copy
// goes behind the tree's earlier runs; a run set before stays, unused.
func (t *Tree) SetLeftCats(i int, ids []int32) {
	end, ok := catsEnd(len(t.cats), len(ids))
	if !ok {
		panic("gbdt: a tree's category ids outgrow the uint32 range that addresses them")
	}
	t.Nodes[i].catLo, t.Nodes[i].catHi = uint32(len(t.cats)), end
	t.cats = append(t.cats, ids...)
}

// catsEnd returns where a run of n ids ends that starts behind at
// others, and whether a node's uint32 bounds can say so.
func catsEnd(at, n int) (uint32, bool) {
	end := uint64(at) + uint64(n)
	return uint32(end), end <= math.MaxUint32
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

// splitResult describes the best split found for one node.
type splitResult struct {
	feature  int
	kind     FeatureKind
	bin      int     // numeric: highest bin index routed left
	leftCats []int32 // categorical: category bins routed left
	gain     float64
	found    bool
	// gl, hl are the left side's gradient/hessian sums at the chosen
	// split, taken from the scan's prefix accumulation; the engine
	// derives both children's sums from them instead of re-gathering
	// gradients during partition. Unused by the legacy grower.
	gl, hl float64
}

// grower holds the per-training-run state of the legacy trainer: it
// rebuilds every node's histograms from that node's rows and allocates
// per-node row slices. Retained as the reference implementation behind
// TrainClassifierNaive (the parity oracle); the production trainers run
// the histogram-subtraction engine in hist.go.
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

func splitGain(gl, hl, gr_, hr, parentScore, lambda float64) float64 {
	return 0.5 * (gl*gl/(hl+lambda) + gr_*gr_/(hr+lambda) - parentScore)
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
