package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"repro/internal/features"
	"repro/internal/gbdt"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Fig9aResult reproduces Figure 9a: accumulated inference latency over
// 50 consecutive jobs. The paper's YDF-in-Python prototype took ~4 ms
// per job; our in-process Go trees are far below that, comfortably
// within online placement budgets.
type Fig9aResult struct {
	NumJobs        int
	TotalMicros    float64
	PerJobMicros   []float64
	MeanMicros     float64
	Per99Micros    float64
	ModelNumTrees  int
	ModelNumLeaves int
}

// Fig9a times category-model inference on 50 test jobs.
func Fig9a(opts Options) (*Fig9aResult, error) {
	env := BuildEnv(0, opts)
	model, err := env.TrainModel(opts)
	if err != nil {
		return nil, err
	}
	n := min(50, len(env.Test.Jobs))
	forest := model.Forest()
	res := &Fig9aResult{NumJobs: n, ModelNumTrees: forest.NumTrees(), ModelNumLeaves: forest.NumLeaves()}
	var buf []float64
	// Warm up allocation paths once so the measurement reflects the
	// steady state of a resident model.
	_, buf = model.PredictInto(env.Test.Jobs[0], buf)
	for i := 0; i < n; i++ {
		start := time.Now()
		_, buf = model.PredictInto(env.Test.Jobs[i], buf)
		el := float64(time.Since(start).Nanoseconds()) / 1e3
		res.PerJobMicros = append(res.PerJobMicros, el)
		res.TotalMicros += el
	}
	res.MeanMicros = res.TotalMicros / float64(n)
	res.Per99Micros = metrics.Quantile(res.PerJobMicros, 0.99)
	return res, nil
}

// Render writes the latency summary.
func (r *Fig9aResult) Render(w io.Writer) {
	Table(w, "Fig 9a — inference latency (50 jobs)",
		[]string{"metric", "value"},
		[][]string{
			{"jobs", fmt.Sprintf("%d", r.NumJobs)},
			{"accumulated", fmt.Sprintf("%.1f us", r.TotalMicros)},
			{"mean/job", fmt.Sprintf("%.2f us", r.MeanMicros)},
			{"p99/job", fmt.Sprintf("%.2f us", r.Per99Micros)},
			{"model trees", fmt.Sprintf("%d", r.ModelNumTrees)},
			{"model leaves", fmt.Sprintf("%d", r.ModelNumLeaves)},
		})
	fmt.Fprintf(w, "paper reference: ~4 ms/job (unoptimized Python prototype)\n")
}

// Fig9bResult reproduces Figure 9b: top-1 accuracy versus training-set
// size. The paper finds no strong correlation, indicating that large
// data sizes are not strictly required.
type Fig9bResult struct {
	Sizes      []int
	Accuracies []float64
	Pearson    float64
}

// Fig9b trains models on increasing training subsets.
func Fig9b(opts Options) (*Fig9bResult, error) {
	env := BuildEnv(0, opts)
	res := &Fig9bResult{}
	rng := rand.New(rand.NewSource(opts.Seed))
	full := env.Train.Jobs
	for _, size := range []int{200, 400, 800, 1600, 3200, 6400} {
		size = min(size, len(full))
		sub := sampleJobs(full, size, rng)
		model, err := TrainModelOn(sub, env.Cost, opts)
		if err != nil {
			return nil, err
		}
		res.Sizes = append(res.Sizes, size)
		res.Accuracies = append(res.Accuracies, model.Accuracy(env.Test.Jobs, env.Cost))
		if size == len(full) {
			break
		}
	}
	xs := make([]float64, len(res.Sizes))
	for i, s := range res.Sizes {
		xs[i] = math.Log(float64(s))
	}
	res.Pearson = metrics.Pearson(xs, res.Accuracies)
	return res, nil
}

func sampleJobs(jobs []*trace.Job, n int, rng *rand.Rand) []*trace.Job {
	if n >= len(jobs) {
		return jobs
	}
	idx := rng.Perm(len(jobs))[:n]
	out := make([]*trace.Job, n)
	for i, k := range idx {
		out[i] = jobs[k]
	}
	return out
}

// Render writes the accuracy curve.
func (r *Fig9bResult) Render(w io.Writer) {
	var rows [][]string
	for i := range r.Sizes {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Sizes[i]),
			fmt.Sprintf("%.3f", r.Accuracies[i]),
		})
	}
	Table(w, "Fig 9b — top-1 accuracy vs training size (N=15)",
		[]string{"train size", "accuracy"}, rows)
	fmt.Fprintf(w, "log-size/accuracy correlation: %.2f (paper: no strong correlation)\n", r.Pearson)
}

// Fig9cResult reproduces Figure 9c: per-category importance of the four
// feature groups, measured as the AUC decrease when the group is
// removed from a binary (one-vs-rest) prediction task, normalized
// within each category.
type Fig9cResult struct {
	Groups     []string // A, B, C, T
	Categories []int
	// Importance[g][c] is the normalized AUC-decrease of group g for
	// category index c.
	Importance [][]float64
}

// Fig9c measures feature-group importance with group-masking ablations.
func Fig9c(opts Options) (*Fig9cResult, error) {
	env := BuildEnv(0, opts)
	model, err := env.TrainModel(opts)
	if err != nil {
		return nil, err
	}
	enc := model.Encoder
	labeler := model.Labeler
	n := labeler.NumCategories

	// Subsample for tractability: Fig 9c needs N x (1 + 4 groups)
	// binary trainings.
	rng := rand.New(rand.NewSource(opts.Seed + 7))
	trainJobs := sampleJobs(env.Train.Jobs, 2500, rng)
	testJobs := sampleJobs(env.Test.Jobs, 2500, rng)

	trainDS := enc.Dataset(trainJobs)
	testDS := enc.Dataset(testJobs)
	trainLabels := labeler.Labels(trainJobs, env.Cost)
	testLabels := labeler.Labels(testJobs, env.Cost)

	groups := []string{features.GroupHistory, features.GroupMetadata, features.GroupResources, features.GroupTimestamp}
	groupCols := map[string][]int{}
	for f, g := range enc.FeatureGroups() {
		groupCols[g] = append(groupCols[g], f)
	}

	cfg := gbdt.DefaultConfig()
	cfg.NumRounds = 10
	cfg.MaxDepth = 4
	cfg.Seed = opts.Seed

	res := &Fig9cResult{Groups: groups}
	res.Importance = make([][]float64, len(groups))
	for gi := range groups {
		res.Importance[gi] = make([]float64, 0, n)
	}

	for c := 0; c < n; c++ {
		binTrain := binaryLabels(trainLabels, c)
		binTest := binaryLabels(testLabels, c)
		if !hasBothClasses(binTrain) || !hasBothClasses(binTest) {
			for gi := range groups {
				res.Importance[gi] = append(res.Importance[gi], 0)
			}
			res.Categories = append(res.Categories, c)
			continue
		}
		fullAUC, err := binaryAUC(trainDS, testDS, binTrain, binTest, nil, cfg)
		if err != nil {
			return nil, err
		}
		decreases := make([]float64, len(groups))
		var total float64
		for gi, g := range groups {
			ablAUC, err := binaryAUC(trainDS, testDS, binTrain, binTest, groupCols[g], cfg)
			if err != nil {
				return nil, err
			}
			d := fullAUC - ablAUC
			if d < 0 {
				d = 0
			}
			decreases[gi] = d
			total += d
		}
		for gi := range groups {
			v := 0.0
			if total > 0 {
				v = decreases[gi] / total
			}
			res.Importance[gi] = append(res.Importance[gi], v)
		}
		res.Categories = append(res.Categories, c)
	}
	return res, nil
}

func binaryLabels(labels []int, class int) []int {
	out := make([]int, len(labels))
	for i, l := range labels {
		if l == class {
			out[i] = 1
		}
	}
	return out
}

func hasBothClasses(labels []int) bool {
	var pos, neg bool
	for _, l := range labels {
		if l == 1 {
			pos = true
		} else {
			neg = true
		}
	}
	return pos && neg
}

// binaryAUC trains a binary model with maskCols zeroed out and returns
// the held-out AUC of the positive-class probability.
func binaryAUC(trainDS, testDS *gbdt.Dataset, trainLabels, testLabels []int, maskCols []int, cfg gbdt.Config) (float64, error) {
	tr := maskDataset(trainDS, maskCols)
	te := maskDataset(testDS, maskCols)
	model, err := gbdt.TrainClassifier(tr, trainLabels, 2, cfg)
	if err != nil {
		return 0, err
	}
	forest, err := model.Compile()
	if err != nil {
		return 0, err
	}
	scores := make([]float64, te.N)
	labels := make([]bool, te.N)
	row := make([]float64, te.Schema.NumFeatures())
	var proba []float64
	for i := 0; i < te.N; i++ {
		row = te.Row(i, row)
		proba = forest.PredictProba(row, proba)
		scores[i] = proba[1]
		labels[i] = testLabels[i] == 1
	}
	auc := metrics.AUC(labels, scores)
	if math.IsNaN(auc) {
		auc = 0.5
	}
	return auc, nil
}

// maskDataset returns a dataset with the given columns replaced by a
// constant (0 = unknown id for categoricals), removing their signal
// without changing the schema.
func maskDataset(ds *gbdt.Dataset, cols []int) *gbdt.Dataset {
	if len(cols) == 0 {
		return ds
	}
	masked := &gbdt.Dataset{Schema: ds.Schema, N: ds.N, Cols: make([][]float64, len(ds.Cols))}
	copy(masked.Cols, ds.Cols)
	for _, c := range cols {
		masked.Cols[c] = make([]float64, ds.N)
	}
	return masked
}

// GroupMean returns the mean importance of a group across categories.
func (r *Fig9cResult) GroupMean(group string) float64 {
	for gi, g := range r.Groups {
		if g == group {
			var sum float64
			for _, v := range r.Importance[gi] {
				sum += v
			}
			if len(r.Importance[gi]) == 0 {
				return 0
			}
			return sum / float64(len(r.Importance[gi]))
		}
	}
	return 0
}

// Render writes the group x category matrix.
func (r *Fig9cResult) Render(w io.Writer) {
	header := []string{"group"}
	for _, c := range r.Categories {
		header = append(header, fmt.Sprintf("c%d", c))
	}
	header = append(header, "mean")
	var rows [][]string
	for gi, g := range r.Groups {
		row := []string{g}
		for _, v := range r.Importance[gi] {
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		row = append(row, fmt.Sprintf("%.3f", r.GroupMean(g)))
		rows = append(rows, row)
	}
	Table(w, "Fig 9c — normalized AUC decrease per feature group and category", header, rows)
	fmt.Fprintf(w, "paper: group A (history) drives density ranking; B/T drive the negative-savings class\n")
}
