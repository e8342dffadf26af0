package gbdt_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/gbdt"
)

// testdata/model_pr22.json was trained on compatData and saved by the
// code of PR 22, the last commit whose Node was the 88-byte struct that
// encoding/json wrote by reflection; model_pr22.expect.json holds what
// that code predicted on compatRows. Neither file is ever regenerated:
// they are the model file format, and the numbers a model file means.
const (
	compatModelFile  = "testdata/model_pr22.json"
	compatExpectFile = "testdata/model_pr22.expect.json"
	compatModelSHA   = "35250396436030ac3a3ced1a1221257d1003d773ab492be2ea8a6616ebb65499"
)

// compatExpect is model_pr22.expect.json: Model.Logits per row of
// compatRows (Forest.Logits returned the same float64s). The file also
// holds the gain-based importances of a model that kept its gains.
type compatExpect struct {
	Logits [][]float64 `json:"logits"`
}

// gainMember matches a node's "g" member, which Save no longer writes.
var gainMember = regexp.MustCompile(`,"g":[-+.0-9eE]+`)

var compatSchema = &gbdt.Schema{
	Names: []string{"x0", "x1", "c0", "x2", "c1", "x3"},
	Kinds: []gbdt.FeatureKind{gbdt.Numeric, gbdt.Numeric, gbdt.Categorical, gbdt.Numeric, gbdt.Categorical, gbdt.Numeric},
	Cards: []int{0, 0, 6, 0, 40, 0},
}

// compatRow draws one row: numerics with the odd missing value,
// category ids inside their cardinality.
func compatRow(rng *rand.Rand, row []float64) {
	for f, kind := range compatSchema.Kinds {
		switch {
		case kind == gbdt.Categorical:
			row[f] = float64(rng.Intn(compatSchema.Cards[f]))
		case rng.Intn(25) == 0:
			row[f] = math.NaN()
		default:
			row[f] = math.Round(rng.NormFloat64()*100) / 100
		}
	}
}

// compatData is the training set of the checked-in model: three classes
// that both numeric thresholds and category subsets separate.
func compatData() (*gbdt.Dataset, []int, gbdt.Config) {
	const n = 1500
	rng := rand.New(rand.NewSource(22))
	ds := gbdt.NewDataset(compatSchema, n)
	labels := make([]int, n)
	row := make([]float64, len(compatSchema.Names))
	for i := 0; i < n; i++ {
		compatRow(rng, row)
		score := 0.3 * rng.NormFloat64()
		for f, v := range row {
			ds.Set(i, f, v)
			switch {
			case math.IsNaN(v):
			case f == 2 && (v == 1 || v == 4):
				score += 1.5
			case f == 4 && int(v)%5 == 0:
				score -= 1
			case f == 0:
				score += v
			case f == 1:
				score += 0.5 * v * v
			}
		}
		switch {
		case score > 1.4:
			labels[i] = 2
		case score > 0.3:
			labels[i] = 1
		}
	}
	cfg := gbdt.DefaultConfig()
	cfg.NumRounds, cfg.MaxDepth, cfg.MinSamplesLeaf = 10, 5, 8
	return ds, labels, cfg
}

// compatRows are the 256 rows the recorded predictions are of; every
// eighth one carries ids no split has seen, negative or fractional.
func compatRows() [][]float64 {
	rng := rand.New(rand.NewSource(23))
	rows := make([][]float64, 256)
	for i := range rows {
		rows[i] = make([]float64, len(compatSchema.Names))
		compatRow(rng, rows[i])
		if i%8 == 7 {
			rows[i][2] = []float64{-1, 6, 2.5, 70000}[i/8%4]
			rows[i][4] = math.NaN()
		}
	}
	return rows
}

// TestModelFileCompat: the model file did not move by a byte and means
// what it meant. Loading the parent's file and saving it again returns
// the file but for the gains, which a model no longer keeps; training on
// the same data writes that too, and loading what was saved compiles
// the same forest; the file's own trees, the reference walk and the
// forest predict what the parent predicted.
func TestModelFileCompat(t *testing.T) {
	file, err := os.ReadFile(compatModelFile)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(file); hex.EncodeToString(sum[:]) != compatModelSHA {
		t.Fatalf("%s has SHA-256 %x: the file is the parent commit's and is not to be regenerated", compatModelFile, sum)
	}
	gainless := gainMember.ReplaceAll(file, nil)
	if bytes.Contains(gainless, []byte(`"g"`)) || len(gainless) == len(file) {
		t.Fatalf("stripping the gains left %d of the file's %d bytes and a \"g\"", len(gainless), len(file))
	}
	m, err := gbdt.Load(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), gainless) {
		t.Errorf("Save(Load(file)) differs from the file without its gains (%d bytes, file %d)", saved.Len(), len(gainless))
	}
	again, err := gbdt.Load(bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	forest, reloaded := gbdt.Compiled(t, m), gbdt.Compiled(t, again)
	if !reflect.DeepEqual(reloaded, forest) {
		t.Error("Load(Save(Load(file))) compiles a forest that differs from Load(file)'s")
	}

	ds, labels, cfg := compatData()
	trained, err := gbdt.TrainClassifier(ds, labels, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	saved.Reset()
	if err := trained.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), gainless) {
		t.Errorf("training on the file's data saves %d bytes that differ from the file's %d without its gains", saved.Len(), len(gainless))
	}

	var want compatExpect
	raw, err := os.ReadFile(compatExpectFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	// The trees as the file holds them, decoded without Load.
	var trees struct {
		Trees [][]*gbdt.Tree `json:"trees"`
	}
	if err := json.Unmarshal(file, &trees); err != nil {
		t.Fatal(err)
	}
	rows := compatRows()
	if len(want.Logits) != len(rows) {
		t.Fatalf("%d recorded rows, %d rows", len(want.Logits), len(rows))
	}
	for i, row := range rows {
		model, compiled := m.Logits(row), forest.Logits(row, nil)
		walked := gbdt.TreeLogits(m.InitScores, trees.Trees, row)
		for k, w := range want.Logits[i] {
			if model[k] != w || compiled[k] != w || walked[k] != w {
				t.Fatalf("row %d %v class %d: Model.Logits %v, Forest.Logits %v, the file's trees %v, recorded %v",
					i, row, k, model[k], compiled[k], walked[k], w)
			}
		}
	}
}
