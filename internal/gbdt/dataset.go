// Package gbdt is a from-scratch gradient-boosted decision trees library,
// the reproduction's stand-in for Yggdrasil Decision Forests (the model
// family the paper uses for its category models). It supports numeric and
// categorical features, multiclass softmax classification with Newton leaf
// weights, squared-loss regression, histogram-based numeric splits,
// gradient-ordered categorical splits and JSON serialization.
//
// Training runs on a histogram-subtraction engine (hist.go): trees grow
// depth-first over one reusable row-index arena with in-place
// partitioning, each split builds only one child's histograms and derives
// the sibling's by parent-minus-child subtraction, and in-sample rows
// take their leaf assignment directly from the partitions instead of
// replaying per-row tree traversal. Work spreads across up to
// Config.Workers goroutines along two axes — class trees within a
// boosting round and feature chunks within a node.
//
// Determinism guarantee: training is bit-identical for the same dataset,
// labels and Config (including Seed) at any Workers value. All parallel
// reductions have fixed order (rows accumulate in arena order, split
// candidates reduce in feature order with strict-greater tie-breaking,
// round losses sum fixed-size chunks in chunk order), so serialized
// models compare byte-equal across worker counts; Workers itself is
// excluded from model JSON. Inference (Forest) is likewise bit-identical
// to per-row Tree traversal. A Model is its compiled Forest: training and
// Load build trees, compile them and drop them, refusing what the binned
// layout cannot hold with a *LimitError, and Model.Compile returns the
// forest. A Forest answers one row (Logits, PredictClass, PredictProba),
// float rows in blocks (PredictClassBatch) or binned rows
// (PredictClassBinned), while the Model's own predictors, a float walk
// over the forest's nodes, stay as the reference.
package gbdt

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// FeatureKind distinguishes numeric from categorical features.
type FeatureKind int

const (
	// Numeric features split on thresholds (x <= t goes left).
	Numeric FeatureKind = iota
	// Categorical features split on category subsets. Values must be
	// non-negative integer ids stored as float64.
	Categorical
)

// Schema describes the feature space of a dataset and model.
type Schema struct {
	Names []string      `json:"names"`
	Kinds []FeatureKind `json:"kinds"`
	// Cards holds the cardinality of each categorical feature (ids are
	// in [0, card)); 0 for numeric features.
	Cards []int `json:"cards"`
	// Groups optionally tags each feature with a feature-group label
	// (the paper's groups A/B/C/T); used by the importance analysis.
	Groups []string `json:"groups,omitempty"`
}

// NumFeatures returns the number of features.
func (s *Schema) NumFeatures() int { return len(s.Names) }

// Validate checks internal consistency.
func (s *Schema) Validate() error {
	n := len(s.Names)
	if len(s.Kinds) != n || len(s.Cards) != n {
		return fmt.Errorf("gbdt: schema field lengths disagree: names=%d kinds=%d cards=%d",
			n, len(s.Kinds), len(s.Cards))
	}
	if s.Groups != nil && len(s.Groups) != n {
		return fmt.Errorf("gbdt: schema groups length %d != %d", len(s.Groups), n)
	}
	for i, k := range s.Kinds {
		switch k {
		case Numeric:
			if s.Cards[i] != 0 {
				return fmt.Errorf("gbdt: numeric feature %q has cardinality %d", s.Names[i], s.Cards[i])
			}
		case Categorical:
			if s.Cards[i] <= 0 {
				return fmt.Errorf("gbdt: categorical feature %q has cardinality %d", s.Names[i], s.Cards[i])
			}
		default:
			return fmt.Errorf("gbdt: feature %q has unknown kind %d", s.Names[i], k)
		}
	}
	return nil
}

// Dataset is a column-major feature matrix. Categorical values are
// integer ids stored as float64; NaN marks missing numeric values
// (treated as smaller than any threshold).
type Dataset struct {
	Schema *Schema
	Cols   [][]float64
	N      int
}

// NewDataset allocates an n-row dataset for the schema. Its columns are
// cut from one array, each with its capacity clipped to n.
func NewDataset(schema *Schema, n int) *Dataset {
	cols := make([][]float64, schema.NumFeatures())
	all := make([]float64, len(cols)*n)
	for i := range cols {
		cols[i] = all[i*n : (i+1)*n : (i+1)*n]
	}
	return &Dataset{Schema: schema, Cols: cols, N: n}
}

// Set assigns one cell.
func (d *Dataset) Set(row, col int, v float64) { d.Cols[col][row] = v }

// Row copies row i into buf (allocating if buf is too small) and
// returns it.
func (d *Dataset) Row(i int, buf []float64) []float64 {
	nf := len(d.Cols)
	if cap(buf) < nf {
		buf = make([]float64, nf)
	}
	buf = buf[:nf]
	for f := 0; f < nf; f++ {
		buf[f] = d.Cols[f][i]
	}
	return buf
}

// Validate checks that categorical columns contain in-range ids.
func (d *Dataset) Validate() error {
	if err := d.Schema.Validate(); err != nil {
		return err
	}
	for f, kind := range d.Schema.Kinds {
		if kind != Categorical {
			continue
		}
		card := float64(d.Schema.Cards[f])
		for i, v := range d.Cols[f] {
			if math.IsNaN(v) {
				continue // missing: routed to the right branch at prediction
			}
			if v < 0 || v >= card || v != math.Trunc(v) {
				return fmt.Errorf("gbdt: feature %q row %d has invalid category %g (card %d)",
					d.Schema.Names[f], i, v, d.Schema.Cards[f])
			}
		}
	}
	return nil
}

// binning precomputes, per feature, the mapping raw value -> bin index
// used by histogram split finding. Numeric features get quantile bins
// with stored upper boundaries (so trained thresholds apply to raw
// values); categorical features use the category id as the bin.
type binning struct {
	// uppers[f] holds, for numeric feature f, the sorted list of bin
	// upper-boundary values; bin b covers (uppers[b-1], uppers[b]].
	// nil for categorical features.
	uppers [][]float64
	// numBins[f] is the number of bins for feature f.
	numBins []int
	// binned[f][i] is the bin index of row i for feature f. Missing
	// numeric values get bin 0.
	binned [][]int32
}

// buildBinning computes bins for the dataset with at most maxBins bins
// per numeric feature. Up to workers goroutines take the features one
// at a time; a feature's bins depend on its own column alone, so the
// schedule cannot change them. The bins of every feature are cut from
// one array, and the boundaries of every numeric feature from another,
// each feature's window as wide as its boundaries can be.
func buildBinning(d *Dataset, maxBins, workers int) *binning {
	nf := d.Schema.NumFeatures()
	b := &binning{
		uppers:  make([][]float64, nf),
		numBins: make([]int, nf),
		binned:  make([][]int32, nf),
	}
	all := make([]int32, nf*d.N)
	for f := range b.binned {
		b.binned[f] = all[f*d.N : (f+1)*d.N]
	}
	// A column of n values has at most n-1 boundaries between distinct ones.
	width := max(min(maxBins, d.N)-1, 0)
	uppers := make([]float64, nf*width)
	for f, kind := range d.Schema.Kinds {
		if kind == Numeric {
			b.uppers[f] = uppers[f*width : f*width : (f+1)*width]
		}
	}
	w := &binWork{d: d, b: b, maxBins: maxBins}
	workers = max(min(workers, nf), 1)
	w.wg.Add(workers)
	for range workers - 1 {
		go w.run()
	}
	w.run()
	w.wg.Wait()
	return b
}

// binWork is one buildBinning: its workers share it, and next is the
// next feature to bin.
type binWork struct {
	d       *Dataset
	b       *binning
	maxBins int
	next    atomic.Int32
	wg      sync.WaitGroup
}

// run bins features until none is left, sorting each numeric column in
// one scratch slice of its own, as long as a column.
func (w *binWork) run() {
	defer w.wg.Done()
	var vals []float64
	for f := int(w.next.Add(1)) - 1; f < len(w.b.binned); f = int(w.next.Add(1)) - 1 {
		col, bins := w.d.Cols[f], w.b.binned[f]
		if w.d.Schema.Kinds[f] == Categorical {
			for i, v := range col {
				if math.IsNaN(v) {
					bins[i] = 0
				} else {
					bins[i] = int32(v)
				}
			}
			w.b.numBins[f] = w.d.Schema.Cards[f]
			continue
		}
		if vals == nil {
			vals = make([]float64, 0, len(col))
		}
		boundaries := numericBoundaries(col, w.maxBins, vals, w.b.uppers[f])
		w.b.uppers[f] = boundaries
		w.b.numBins[f] = len(boundaries) + 1
		for i, v := range col {
			bins[i] = int32(findBin(boundaries, v))
		}
	}
}

// numericBoundaries picks up to maxBins-1 split boundaries between
// distinct values at (approximately) uniform quantiles. Boundaries are
// midpoints so that trained thresholds generalize to unseen values.
// vals is sorting scratch, and the boundaries are appended to dst[:0],
// whose capacity holds them: min(maxBins, len(col))-1.
//
// The ranks read vals after uniq has been compacted over it in place,
// not the full sorted sample the comment below promises; every model
// is trained on these bins, so they stay as they are.
func numericBoundaries(col []float64, maxBins int, vals, dst []float64) []float64 {
	vals = vals[:0]
	for _, v := range col {
		if !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return nil
	}
	sort.Float64s(vals)
	// Unique values.
	uniq := vals[:1]
	for _, v := range vals[1:] {
		if v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	if len(uniq) <= 1 {
		return nil
	}
	nCuts := maxBins - 1
	if nCuts > len(uniq)-1 {
		nCuts = len(uniq) - 1
	}
	boundaries := dst[:0]
	// Choose cut positions at uniform ranks over the full (non-unique)
	// sample so bins are approximately equal-population.
	prevIdx := -1
	for c := 1; c <= nCuts; c++ {
		rank := c * len(vals) / (nCuts + 1)
		if rank >= len(vals) {
			rank = len(vals) - 1
		}
		v := vals[rank]
		// Find position of v in uniq.
		idx := sort.SearchFloat64s(uniq, v)
		if idx == 0 {
			idx = 1
		}
		if idx <= prevIdx {
			continue
		}
		prevIdx = idx
		boundaries = append(boundaries, (uniq[idx-1]+uniq[idx])/2)
	}
	// Degenerate fallback: ensure at least one boundary exists.
	if len(boundaries) == 0 {
		boundaries = append(boundaries, (uniq[0]+uniq[1])/2)
	}
	return boundaries
}

// findBin returns the bin index of v given sorted upper boundaries;
// bin b covers (boundaries[b-1], boundaries[b]]. NaN maps to bin 0.
func findBin(boundaries []float64, v float64) int {
	if math.IsNaN(v) {
		return 0
	}
	// First boundary >= v.
	lo, hi := 0, len(boundaries)
	for lo < hi {
		mid := (lo + hi) / 2
		if boundaries[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
