// Package core implements the paper's primary contribution: the BYOM
// category model (Section 4.2's importance-ranking label design trained
// on application-level features) and the storage-layer Adaptive Category
// Selection Algorithm (Algorithm 1) that turns category predictions into
// online placement decisions using spillover-TCIO feedback.
//
// A CategoryModel predicts on one gbdt.Forest, compiled when its model
// is trained or loaded (which refuses a model the forest cannot hold)
// and shared by everything that holds the bundle: serving installs it,
// the simulator's policies and the experiments predict on it — one row
// at a time (PredictInto, Hinter) or a whole trace in 64-row blocks
// (Categories). CategoryModel.Predict alone walks the forest's nodes on
// raw floats, with no binning: it is the reference the rest is tested
// against.
package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/cost"
	"repro/internal/trace"
)

// Labeler assigns the paper's importance-ranking category C(x) to jobs:
//
//	C(x) = 0                      if TCO savings < 0
//	C(x) = k in {1..N-1}          by I/O density quantile among jobs
//	                              with non-negative savings (N-1 densest)
//
// Quantile boundaries are fitted on the training set so categories
// 1..N-1 evenly divide it (Section 4.2: linear or log spacing would be
// heavily imbalanced).
type Labeler struct {
	NumCategories int `json:"num_categories"`
	// Boundaries holds the N-2 I/O density boundaries between classes
	// 1..N-1, ascending: class k covers (Boundaries[k-2], Boundaries[k-1]].
	Boundaries []float64 `json:"boundaries"`
}

// Spacing selects how category boundaries divide the I/O density axis.
// The paper (§4.2) found that linear and logarithmic spacing produce a
// heavily imbalanced training set and therefore chose quantiles; the
// alternatives are retained for the label-design ablation.
type Spacing int

const (
	// SpacingQuantile evenly divides the training set by density
	// (the paper's design).
	SpacingQuantile Spacing = iota
	// SpacingLinear divides the density *range* evenly.
	SpacingLinear
	// SpacingLog divides the density range evenly in log space.
	SpacingLog
)

func (s Spacing) String() string {
	switch s {
	case SpacingLinear:
		return "linear"
	case SpacingLog:
		return "log"
	default:
		return "quantile"
	}
}

// FitLabeler computes density-quantile boundaries from training jobs.
// If no job has non-negative savings (a cluster of purely HDD-suitable
// workloads, like the paper's outlier cluster C3), the boundaries fall
// back to overall density quantiles: training labels are then all
// category 0, but the labeler can still rank unseen jobs by density.
func FitLabeler(jobs []*trace.Job, cm *cost.Model, numCategories int) (*Labeler, error) {
	return FitLabelerSpacing(jobs, cm, numCategories, SpacingQuantile)
}

// FitLabelerSpacing is FitLabeler with an explicit boundary spacing.
func FitLabelerSpacing(jobs []*trace.Job, cm *cost.Model, numCategories int, spacing Spacing) (*Labeler, error) {
	if numCategories < 2 {
		return nil, fmt.Errorf("core: need at least 2 categories, got %d", numCategories)
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("core: no jobs to fit labeler on")
	}
	densities := make([]float64, 0, len(jobs))
	for _, j := range jobs {
		if cm.Savings(j) >= 0 {
			densities = append(densities, j.IODensity())
		}
	}
	if len(densities) == 0 {
		for _, j := range jobs {
			densities = append(densities, j.IODensity())
		}
	}
	sort.Float64s(densities)
	nPos := numCategories - 1 // classes 1..N-1
	l := &Labeler{NumCategories: numCategories}
	lo, hi := densities[0], densities[len(densities)-1]
	for k := 1; k < nPos; k++ {
		frac := float64(k) / float64(nPos)
		var b float64
		switch spacing {
		case SpacingLinear:
			b = lo + frac*(hi-lo)
		case SpacingLog:
			floor := math.Max(lo, 1e-9)
			b = math.Exp(math.Log(floor) + frac*(math.Log(math.Max(hi, floor))-math.Log(floor)))
		default:
			idx := int(frac * float64(len(densities)-1))
			b = densities[idx]
		}
		l.Boundaries = append(l.Boundaries, b)
	}
	// Degenerate distributions can produce non-monotone boundaries
	// after floating point; enforce monotonicity.
	for i := 1; i < len(l.Boundaries); i++ {
		if l.Boundaries[i] < l.Boundaries[i-1] {
			l.Boundaries[i] = l.Boundaries[i-1]
		}
	}
	return l, nil
}

// LabelValues assigns the category from raw (savings, density) values.
func (l *Labeler) LabelValues(savings, density float64) int {
	if savings < 0 {
		return 0
	}
	// Find the first boundary >= density; class index is position+1.
	// Values exactly on a boundary belong to the lower class
	// (boundaries are class upper bounds).
	return sort.SearchFloat64s(l.Boundaries, density) + 1
}

// Label assigns the category of a job using the cost model's ground
// truth — available only post-execution, hence usable for training
// labels and the Fig. 11 "true category" analysis, never online.
func (l *Labeler) Label(j *trace.Job, cm *cost.Model) int {
	return l.LabelValues(cm.Savings(j), j.IODensity())
}

// Labels computes categories for a job slice.
func (l *Labeler) Labels(jobs []*trace.Job, cm *cost.Model) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = l.Label(j, cm)
	}
	return out
}

// Validate checks boundary monotonicity.
func (l *Labeler) Validate() error {
	if l.NumCategories < 2 {
		return fmt.Errorf("core: labeler has %d categories", l.NumCategories)
	}
	if len(l.Boundaries) != l.NumCategories-2 {
		return fmt.Errorf("core: labeler has %d boundaries for %d categories",
			len(l.Boundaries), l.NumCategories)
	}
	for i := 1; i < len(l.Boundaries); i++ {
		if l.Boundaries[i] < l.Boundaries[i-1] {
			return fmt.Errorf("core: labeler boundaries not ascending at %d", i)
		}
	}
	for _, b := range l.Boundaries {
		if math.IsNaN(b) {
			return fmt.Errorf("core: labeler has NaN boundary")
		}
	}
	return nil
}

// LoadLabeler reads a labeler serialized as JSON, as CategoryModel.Save
// writes it.
func LoadLabeler(r io.Reader) (*Labeler, error) {
	var l Labeler
	if err := json.NewDecoder(r).Decode(&l); err != nil {
		return nil, fmt.Errorf("core: decode labeler: %w", err)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return &l, nil
}
