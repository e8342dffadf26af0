package core

import (
	"bytes"
	"testing"

	"repro/internal/cost"
)

// fastTrainOptions keeps model tests quick.
func fastTrainOptions(n int) TrainOptions {
	opts := DefaultTrainOptions()
	opts.NumCategories = n
	opts.GBDT.NumRounds = 12
	opts.GBDT.MaxDepth = 5
	return opts
}

func TestTrainCategoryModelEndToEnd(t *testing.T) {
	jobs := clusterJobs(t, 11, 3)
	cm := cost.Default()
	split := len(jobs) * 2 / 3
	train, test := jobs[:split], jobs[split:]

	model, err := TrainCategoryModel(train, cm, fastTrainOptions(15))
	if err != nil {
		t.Fatal(err)
	}
	if model.NumCategories() != 15 {
		t.Fatalf("NumCategories = %d", model.NumCategories())
	}
	// Predictions must be in range.
	for _, j := range test[:100] {
		c := model.Predict(j)
		if c < 0 || c >= 15 {
			t.Fatalf("prediction %d outside range", c)
		}
	}
	// The paper reports ~0.36 top-1 accuracy for N=15 and notes that
	// random guessing would be ~1/15. The model must clearly beat
	// chance on held-out data.
	acc := model.Accuracy(test, cm)
	if acc < 0.15 {
		t.Errorf("held-out accuracy = %.3f, want > 0.15 (chance is %.3f)", acc, 1.0/15)
	}
	t.Logf("N=15 held-out accuracy: %.3f", acc)
}

func TestTrainCategoryModelSignPrediction(t *testing.T) {
	// With N=2 the task reduces to predicting the savings sign, which
	// metadata makes fairly easy (the paper's N=2 model hits 73%).
	jobs := clusterJobs(t, 12, 3)
	cm := cost.Default()
	split := len(jobs) * 2 / 3
	train, test := jobs[:split], jobs[split:]
	model, err := TrainCategoryModel(train, cm, fastTrainOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	acc := model.Accuracy(test, cm)
	if acc < 0.7 {
		t.Errorf("N=2 held-out accuracy = %.3f, want >= 0.7", acc)
	}
	t.Logf("N=2 held-out accuracy: %.3f", acc)
}

func TestCategoryModelSerialization(t *testing.T) {
	jobs := clusterJobs(t, 13, 1)
	cm := cost.Default()
	opts := fastTrainOptions(5)
	opts.GBDT.NumRounds = 4
	model, err := TrainCategoryModel(jobs, cm, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCategoryModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs[:50] {
		if got.Predict(j) != model.Predict(j) {
			t.Fatal("prediction changed after round trip")
		}
	}
}

func TestCategoryModelSaveLoadFile(t *testing.T) {
	jobs := clusterJobs(t, 14, 1)
	cm := cost.Default()
	opts := fastTrainOptions(4)
	opts.GBDT.NumRounds = 3
	model, err := TrainCategoryModel(jobs, cm, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.json"
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCategoryModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCategories() != 4 {
		t.Errorf("NumCategories = %d", got.NumCategories())
	}
	if _, err := LoadCategoryModelFile(path + ".gone"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestTrainCategoryModelErrors(t *testing.T) {
	cm := cost.Default()
	if _, err := TrainCategoryModel(nil, cm, fastTrainOptions(5)); err == nil {
		t.Error("empty training set accepted")
	}
	jobs := clusterJobs(t, 15, 1)
	bad := fastTrainOptions(1)
	if _, err := TrainCategoryModel(jobs, cm, bad); err == nil {
		t.Error("NumCategories=1 accepted")
	}
	badGBDT := fastTrainOptions(5)
	badGBDT.GBDT.NumRounds = 0
	if _, err := TrainCategoryModel(jobs, cm, badGBDT); err == nil {
		t.Error("invalid GBDT config accepted")
	}
}

func TestLoadCategoryModelRejectsMismatch(t *testing.T) {
	jobs := clusterJobs(t, 16, 1)
	cm := cost.Default()
	opts := fastTrainOptions(4)
	opts.GBDT.NumRounds = 2
	model, err := TrainCategoryModel(jobs, cm, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: labeler says 5 categories, model has 4 classes.
	model.Labeler = &Labeler{NumCategories: 5, Boundaries: []float64{1, 2, 3}}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCategoryModel(&buf); err == nil {
		t.Error("class-count mismatch accepted")
	}
	if _, err := LoadCategoryModel(bytes.NewBufferString("{}")); err == nil {
		t.Error("empty bundle accepted")
	}
}

func TestPredictIntoReusesBuffer(t *testing.T) {
	jobs := clusterJobs(t, 17, 1)
	cm := cost.Default()
	opts := fastTrainOptions(3)
	opts.GBDT.NumRounds = 2
	model, err := TrainCategoryModel(jobs, cm, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf []float64
	c1, buf := model.PredictInto(jobs[0], buf)
	c2, buf2 := model.PredictInto(jobs[0], buf)
	if c1 != c2 {
		t.Error("PredictInto not deterministic")
	}
	if len(buf) > 0 && len(buf2) > 0 && &buf[0] != &buf2[0] {
		t.Error("PredictInto reallocated the buffer")
	}
	if c1 != model.Predict(jobs[0]) {
		t.Error("PredictInto disagrees with Predict")
	}
}
