package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/cost"
	"repro/internal/features"
	"repro/internal/gbdt"
	"repro/internal/trace"
)

// MaxVocab caps each metadata vocabulary of a trained model's encoder.
const MaxVocab = 2048

// TrainOptions configures category-model training.
type TrainOptions struct {
	// NumCategories is N; the paper's default models use N = 15.
	NumCategories int
	// GBDT holds the boosting hyperparameters.
	GBDT gbdt.Config
}

// DefaultTrainOptions mirrors the paper's setup (15-class model,
// depth-6 trees) with a tree count sized for laptop-scale traces.
// GBDT.Workers is left at 0 (GOMAXPROCS): training parallelism never
// changes the resulting model, so callers only set it to bound CPU use
// when many models train concurrently (per-cluster or per-category
// retrain fleets).
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{
		NumCategories: 15,
		GBDT:          gbdt.DefaultConfig(),
	}
}

// CategoryModel bundles everything an application needs to produce
// placement hints: the feature encoder (vocabularies), the trained
// ranking model and the label design. This is the artifact a workload
// "brings" under the BYOM design — and the unit of rollout: versions
// of it flow through internal/registry to the serving layer, and the
// internal/online learner retrains it on fresh outcomes at the
// workload's own release velocity (§2.3).
//
// A bundle is built by NewCategoryModel (or TrainCategoryModel and
// LoadCategoryModel, which return through it) around a trained or
// loaded Model, whose compiled forest every predictor but Predict runs
// on. The three parts are fixed from then on: a new Model means a new
// bundle.
type CategoryModel struct {
	Encoder *features.Encoder
	Model   *gbdt.Model
	Labeler *Labeler
}

// NewCategoryModel bundles an encoder, a trained or loaded model and a
// label design. Training and gbdt.Load compiled the model's forest, and
// refused with a *gbdt.LimitError a model the binned layout cannot
// hold, so every bundle there is can be served; a Model built by hand
// has no forest and is refused here.
func NewCategoryModel(enc *features.Encoder, model *gbdt.Model, labeler *Labeler) (*CategoryModel, error) {
	if _, err := model.Compile(); err != nil {
		return nil, fmt.Errorf("core: category model: %w", err)
	}
	return &CategoryModel{Encoder: enc, Model: model, Labeler: labeler}, nil
}

// TrainCategoryModel trains a category model on historical jobs: it
// fits the label design (density quantiles), builds vocabularies,
// encodes features and trains the pointwise ranking classifier.
func TrainCategoryModel(train []*trace.Job, cm *cost.Model, opts TrainOptions) (*CategoryModel, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("core: no training jobs")
	}
	labeler, err := FitLabeler(train, cm, opts.NumCategories)
	if err != nil {
		return nil, err
	}
	return TrainCategoryModelWithLabeler(train, cm, labeler, opts)
}

// TrainCategoryModelWithLabeler trains against an externally fitted
// label design. Finer-granularity deployments (one model per user or
// per pipeline, §5.1) share one labeler so that category hints from
// different models remain comparable at the storage layer.
func TrainCategoryModelWithLabeler(train []*trace.Job, cm *cost.Model, labeler *Labeler, opts TrainOptions) (*CategoryModel, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("core: no training jobs")
	}
	if opts.NumCategories < 2 {
		return nil, fmt.Errorf("core: NumCategories = %d", opts.NumCategories)
	}
	if labeler.NumCategories != opts.NumCategories {
		return nil, fmt.Errorf("core: labeler has %d categories, options %d",
			labeler.NumCategories, opts.NumCategories)
	}
	labels := labeler.Labels(train, cm)
	enc := features.BuildEncoder(train, MaxVocab)
	ds := enc.Dataset(train)
	model, err := gbdt.TrainClassifier(ds, labels, opts.NumCategories, opts.GBDT)
	if err != nil {
		return nil, fmt.Errorf("core: training classifier: %w", err)
	}
	return NewCategoryModel(enc, model, labeler)
}

// NumCategories returns N.
func (m *CategoryModel) NumCategories() int { return m.Labeler.NumCategories }

// Forest returns the model compiled for inference. Offline prediction
// (sim, the policies, experiments) and serving share this one forest per
// bundle; it is safe for concurrent use. NewCategoryModel refused a
// model without one, so the error Compile can return never comes.
func (m *CategoryModel) Forest() *gbdt.Forest {
	f, _ := m.Model.Compile()
	return f
}

// Predict returns the predicted importance category of a job using only
// decision-time features. Unlike every other predictor of the bundle it
// runs gbdt.Model.PredictClass, a float walk over the forest's nodes
// that shares no binning or traversal code with the forest's entries,
// on purpose: it is the reference that the benchmark's verify step and
// the differential tests hold the forest's decisions to, and that
// independence is worth more than the speed of a convenience wrapper.
// Loops call PredictInto or Categories.
func (m *CategoryModel) Predict(j *trace.Job) int {
	row := m.Encoder.Encode(j, nil)
	return m.Model.PredictClass(row)
}

// PredictInto is the hot-path predictor: the forest's single-row entry
// over a reusable row buffer, allocation-free once buf has grown.
func (m *CategoryModel) PredictInto(j *trace.Job, buf []float64) (int, []float64) {
	buf = m.Encoder.Encode(j, buf)
	return m.Forest().PredictClass(buf), buf
}

// Hinter is a model predicting one job at a time over its own row
// buffer: the application-layer hint source of a deployment
// (dataflow.Hinter). Not for concurrent use.
type Hinter struct {
	model *CategoryModel
	buf   []float64
}

// Hinter returns a fresh Hinter on the model.
func (m *CategoryModel) Hinter() *Hinter { return &Hinter{model: m} }

// Hint returns the job's predicted category.
func (h *Hinter) Hint(j *trace.Job) (cat int) {
	cat, h.buf = h.model.PredictInto(j, h.buf)
	return cat
}

// categoryBlock is how many rows Categories hands the forest at a time:
// gbdt's own block, one tree walked over 64 rows while it is in L1.
const categoryBlock = 64

// rowSlab is Categories' scratch: a block of encoded rows and what the
// forest's batch entry wants handed back.
type rowSlab struct {
	vals    []float64
	rows    [][]float64
	classes []int
	logits  []float64
}

// slabs recycles the scratch across Categories calls: a suite of 1–3k-job
// replays would otherwise pay the slab per replay.
var slabs = sync.Pool{New: func() any { return new(rowSlab) }}

// Categories writes the predicted category of every job into out
// (reused when large enough) and returns it: out[i] is what PredictInto
// returns for jobs[i]. The jobs are encoded into a pooled row slab and
// classified by the forest in 64-row blocks, on the caller's goroutine
// (replays already run side by side in fleet's and experiments' pools);
// nothing is allocated per job. This is how a replay classifies its
// trace once (sim.Preparer) and how a sweep shares one classification
// across runs.
func (m *CategoryModel) Categories(jobs []*trace.Job, out []int32) []int32 {
	if cap(out) < len(jobs) {
		out = make([]int32, len(jobs))
	}
	out = out[:len(jobs)]
	s := slabs.Get().(*rowSlab)
	defer slabs.Put(s)
	nf := m.Encoder.NumFeatures()
	if cap(s.vals) < categoryBlock*nf {
		s.vals = make([]float64, categoryBlock*nf)
	}
	if s.rows == nil {
		s.rows = make([][]float64, categoryBlock)
	}
	for i := range s.rows {
		s.rows[i] = s.vals[i*nf : (i+1)*nf : (i+1)*nf]
	}
	for lo := 0; lo < len(jobs); lo += categoryBlock {
		block := jobs[lo:min(lo+categoryBlock, len(jobs))]
		for i, j := range block {
			m.Encoder.Encode(j, s.rows[i])
		}
		s.classes, s.logits = m.Forest().PredictClassBatch(s.rows[:len(block)], s.classes, s.logits)
		for i, c := range s.classes {
			out[lo+i] = int32(c)
		}
	}
	return out
}

// Accuracy computes top-1 accuracy against ground-truth labels on a job
// slice (Fig. 9b).
func (m *CategoryModel) Accuracy(jobs []*trace.Job, cm *cost.Model) float64 {
	if len(jobs) == 0 {
		return 0
	}
	correct := 0
	for i, pred := range m.Categories(jobs, nil) {
		if int(pred) == m.Labeler.Label(jobs[i], cm) {
			correct++
		}
	}
	return float64(correct) / float64(len(jobs))
}

// modelBundle is the on-disk representation.
type modelBundle struct {
	Encoder *features.Encoder `json:"encoder"`
	Model   *gbdt.Model       `json:"model"`
	Labeler *Labeler          `json:"labeler"`
}

// Save writes the bundle (encoder + model + labeler) as JSON.
func (m *CategoryModel) Save(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(modelBundle{m.Encoder, m.Model, m.Labeler}); err != nil {
		return fmt.Errorf("core: encode category model: %w", err)
	}
	return nil
}

// LoadCategoryModel reads a bundle written by Save. Like gbdt.Load, it
// refuses a model the forest cannot hold.
func LoadCategoryModel(r io.Reader) (*CategoryModel, error) {
	var raw struct {
		Encoder json.RawMessage `json:"encoder"`
		Model   json.RawMessage `json:"model"`
		Labeler json.RawMessage `json:"labeler"`
	}
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, fmt.Errorf("core: decode category model: %w", err)
	}
	enc, err := features.LoadEncoder(bytesReader(raw.Encoder))
	if err != nil {
		return nil, err
	}
	model, err := gbdt.Load(bytesReader(raw.Model))
	if err != nil {
		return nil, err
	}
	labeler, err := LoadLabeler(bytesReader(raw.Labeler))
	if err != nil {
		return nil, err
	}
	if model.NumClasses != labeler.NumCategories {
		return nil, fmt.Errorf("core: model has %d classes but labeler %d categories",
			model.NumClasses, labeler.NumCategories)
	}
	return NewCategoryModel(enc, model, labeler)
}

// SaveFile writes the bundle to a file.
func (m *CategoryModel) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadCategoryModelFile reads a bundle from a file.
func LoadCategoryModelFile(path string) (*CategoryModel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	return LoadCategoryModel(f)
}

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }
