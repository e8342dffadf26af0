package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/trace"
)

// testdata/bundle.json is the bundle compatBundle trains, as Save wrote
// it before the encoder kept its vocabularies in one table. It is never
// regenerated: it is the bundle file format, encoder and labeler
// included, which gbdt's TestModelFileCompat does not cover.
const (
	compatBundleFile = "testdata/bundle.json"
	compatBundleSHA  = "4a334b288f41a680abbc6533b578913e30853d590d7118b5c51efd9317df1199"
)

// compatBundle trains the pinned bundle: one day of C0 with 4 users,
// 4 categories, 3 rounds.
func compatBundle(tb testing.TB) *core.CategoryModel {
	tb.Helper()
	cfg := trace.DefaultGeneratorConfig("C0", 5)
	cfg.DurationSec, cfg.NumUsers = 24*3600, 4
	jobs := trace.NewGenerator(cfg).Generate().Jobs
	opts := core.DefaultTrainOptions()
	opts.NumCategories = 4
	opts.GBDT.NumRounds = 3
	m, err := core.TrainCategoryModel(jobs, cost.Default(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestBundleFileCompat: training the same bundle saves the pinned file
// byte for byte, and loading the file and saving it again returns it.
func TestBundleFileCompat(t *testing.T) {
	file, err := os.ReadFile(compatBundleFile)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(file); hex.EncodeToString(sum[:]) != compatBundleSHA {
		t.Fatalf("%s has SHA-256 %x: the file is pinned and is not to be regenerated", compatBundleFile, sum)
	}
	var saved bytes.Buffer
	if err := compatBundle(t).Save(&saved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), file) {
		t.Errorf("training the bundle saves %d bytes that differ from the file's %d", saved.Len(), len(file))
	}
	loaded, err := core.LoadCategoryModel(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	saved.Reset()
	if err := loaded.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), file) {
		t.Errorf("Save(Load(file)) writes %d bytes that differ from the file's %d", saved.Len(), len(file))
	}
}
