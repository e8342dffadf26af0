package gbdt_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/features"
	"repro/internal/gbdt"
)

// fuzzSeedModel trains a tiny but real classifier (numeric +
// categorical features, 2 classes) and returns its JSON — the
// well-formed corner of the fuzz corpus.
func fuzzSeedModel(tb testing.TB) []byte {
	tb.Helper()
	const n = 24
	ds := gbdt.NewDataset(&gbdt.Schema{
		Names: []string{"x", "c"},
		Kinds: []gbdt.FeatureKind{gbdt.Numeric, gbdt.Categorical},
		Cards: []int{0, 3},
	}, n)
	for i := 0; i < n; i++ {
		ds.Set(i, 0, float64(i%7))
		ds.Set(i, 1, float64(i%3))
	}
	labels := make([]int, n)
	for i := range labels {
		if i%7 > 3 {
			labels[i] = 1
		}
	}
	cfg := gbdt.DefaultConfig()
	cfg.NumRounds = 3
	cfg.MaxDepth = 3
	m, err := gbdt.TrainClassifier(ds, labels, 2, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadModel: model deserialization must reject malformed input
// with an error — never panic — and anything it accepts must survive
// the full downstream lifecycle (per-row prediction on the reference
// and the forest, re-serialization) without panicking either, and load
// again to the very same forest.
func FuzzLoadModel(f *testing.F) {
	valid := fuzzSeedModel(f)
	f.Add(valid)
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"schema":null,"num_classes":2}`))
	// Structural corruptions of the real model: truncation, a nil
	// tree, an out-of-range feature, a negative category id, children
	// pointing backwards.
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Replace(valid, []byte(`"nodes"`), []byte(`"n0des"`), 1))
	f.Add([]byte(strings.Replace(string(valid), `"f":0`, `"f":99`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"f":1`, `"f":-1`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"l":1`, `"l":0`, 1)))
	f.Add([]byte(`{"schema":{"names":["x"],"kinds":[0],"cards":[0]},"num_classes":1,` +
		`"init_scores":[0],"trees":[[null]]}`))
	f.Add([]byte(`{"schema":{"names":["c"],"kinds":[1],"cards":[2]},"num_classes":1,` +
		`"init_scores":[0],"trees":[[{"nodes":[{"f":0,"k":1,"c":[-4],"l":1,"r":2},` +
		`{"leaf":true},{"leaf":true}]}]]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := gbdt.Load(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly
		}
		// Accepted models must be fully usable. PredictProba panics by
		// documented contract on a regressor, so only a classifier
		// takes it.
		row := make([]float64, m.Schema.NumFeatures())
		m.PredictClass(row)
		m.Logits(row)
		forest := gbdt.Compiled(t, m)
		if m.NumClasses >= 2 {
			forest.PredictProba(row, nil)
		}
		forest.PredictClassBatch([][]float64{row}, nil, nil)
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("re-saving a loaded model failed: %v", err)
		}
		again, err := gbdt.Load(&buf)
		if err != nil {
			t.Fatalf("round trip of a loaded model failed: %v", err)
		}
		if !reflect.DeepEqual(gbdt.Compiled(t, again), forest) {
			t.Fatal("a saved and re-loaded model compiles to another forest")
		}
	})
}

// fuzzForest is one handmade model of FuzzBinnedTraversal: its trees
// and what is compiled and derived from them.
type fuzzForest struct {
	trees  [][]*gbdt.Tree
	model  *gbdt.Model
	forest *gbdt.Forest
	binner *features.Binner
}

// fuzzSchema mixes numeric features with a small and a large
// categorical one, whose sets span dozens of bitset words.
var fuzzSchema = &gbdt.Schema{
	Names: []string{"x0", "c0", "x1", "c1", "x2"},
	Kinds: []gbdt.FeatureKind{gbdt.Numeric, gbdt.Categorical, gbdt.Numeric, gbdt.Categorical, gbdt.Numeric},
	Cards: []int{0, 8, 0, 5000, 0},
}

// fuzzThresholds are the numeric split points: ordinary values, both
// zeros, the smallest and largest finite magnitudes.
var fuzzThresholds = []float64{-1e300, -2.5, -1, math.Copysign(0, -1), 0, 5e-324, 0.5, 1, 3, 1e300, math.MaxFloat64}

var fuzzForests struct {
	once sync.Once
	all  []fuzzForest // a 3-class classifier, then a regressor
}

// randomTree appends a random subtree in pre-order and returns its root.
func randomTree(rng *rand.Rand, t *gbdt.Tree, depth int) int {
	at := len(t.Nodes)
	if depth == 0 || rng.Intn(5) == 0 {
		t.Nodes = append(t.Nodes, gbdt.Node{IsLeaf: true, Value: rng.NormFloat64()})
		return at
	}
	feat := rng.Intn(len(fuzzSchema.Kinds))
	n := gbdt.Node{Feature: int32(feat), Kind: uint8(fuzzSchema.Kinds[feat])}
	var leftCats []int32
	if fuzzSchema.Kinds[feat] == gbdt.Numeric {
		n.Threshold = fuzzThresholds[rng.Intn(len(fuzzThresholds))]
	} else {
		card := fuzzSchema.Cards[feat]
		seen := map[int32]bool{}
		for i := rng.Intn(6); i >= 0; i-- {
			// Mostly low ids, so small fuzzed values land in sets.
			c := int32(rng.Intn(min(card, 12)))
			if rng.Intn(3) == 0 {
				c = int32(rng.Intn(card))
			}
			if !seen[c] {
				seen[c] = true
				leftCats = append(leftCats, c)
			}
		}
		slices.Sort(leftCats)
	}
	t.Nodes = append(t.Nodes, n)
	t.SetLeftCats(at, leftCats)
	left := randomTree(rng, t, depth-1)
	right := randomTree(rng, t, depth-1)
	t.Nodes[at].Left, t.Nodes[at].Right = int32(left), int32(right)
	return at
}

func buildFuzzForests(tb testing.TB) []fuzzForest {
	fuzzForests.once.Do(func() {
		rng := rand.New(rand.NewSource(17))
		for _, classes := range []int{3, 1} {
			var trees [][]*gbdt.Tree
			for r := 0; r < 11; r++ { // 11 rounds: one whole group of 8 trees per class and a parked one
				round := make([]*gbdt.Tree, classes)
				for k := range round {
					round[k] = &gbdt.Tree{}
					randomTree(rng, round[k], 1+rng.Intn(5))
				}
				trees = append(trees, round)
			}
			m, err := gbdt.FromTrees(&gbdt.Model{Schema: fuzzSchema, NumClasses: classes, InitScores: make([]float64, classes)}, trees)
			if err != nil {
				tb.Fatal(err)
			}
			binner, err := features.BinnerForModel(m)
			if err != nil {
				tb.Fatal(err)
			}
			fuzzForests.all = append(fuzzForests.all, fuzzForest{trees, m, gbdt.Compiled(tb, m), binner})
		}
	})
	return fuzzForests.all
}

// Each feature of a fuzzed row is nine bytes: a selector and a payload.
const (
	fuzzRaw       = iota // the payload's bits as a float64: NaN, infinities, anything
	fuzzOnEdge           // a split threshold exactly
	fuzzAboveEdge        // the next float above a threshold
	fuzzBelowEdge        // the next float below a threshold
	fuzzSmallInt         // an int16: valid ids, negative ids, ids past a small card
	fuzzFraction         // an int16 / 4: (-1, 0) truncates to id 0 and must probe
	fuzzPastCard         // card + a uint16
	fuzzPastU16          // 65,536 + a uint16: past what a wire bin can carry
	fuzzSelectors
)

// fuzzRow decodes len(fuzzSchema.Names) features from data; missing
// bytes read as zero.
func fuzzRow(data []byte, row []float64) {
	var chunk [9]byte
	for feat := range row {
		chunk = [9]byte{}
		if len(data) > 9*feat {
			copy(chunk[:], data[9*feat:])
		}
		payload := binary.LittleEndian.Uint64(chunk[1:])
		edge := fuzzThresholds[payload%uint64(len(fuzzThresholds))]
		switch chunk[0] % fuzzSelectors {
		case fuzzRaw:
			row[feat] = math.Float64frombits(payload)
		case fuzzOnEdge:
			row[feat] = edge
		case fuzzAboveEdge:
			row[feat] = math.Nextafter(edge, math.Inf(1))
		case fuzzBelowEdge:
			row[feat] = math.Nextafter(edge, math.Inf(-1))
		case fuzzSmallInt:
			row[feat] = float64(int16(payload))
		case fuzzFraction:
			row[feat] = float64(int16(payload)) / 4
		case fuzzPastCard:
			row[feat] = float64(fuzzSchema.Cards[feat] + int(uint16(payload)))
		case fuzzPastU16:
			row[feat] = float64(65536 + int(uint16(payload)))
		}
	}
}

// fuzzSeed encodes one (selector, payload) pair per feature.
func fuzzSeed(pairs ...uint64) []byte {
	var out []byte
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, byte(pairs[i]))
		out = binary.LittleEndian.AppendUint64(out, pairs[i+1])
	}
	return out
}

// FuzzBinnedTraversal: the forest walks bins, Tree.Predict walks floats,
// and no row may tell them apart. The reference, Model.Logits, must
// return Tree.Predict summed over the handmade trees exactly, and every
// float entry Model.Logits' float64s, on rows built to sit on the seams: NaN
// and infinite numerics, values on and next to a threshold, categorical
// NaN, negative, fractional, past the cardinality and past uint16. A row
// whose categorical values are ids (what an Encoder emits, and all a
// Binner is specified for) must also bin to a row ValidateBins accepts
// and the binned entry classifies alike. Classifier and regressor.
func FuzzBinnedTraversal(f *testing.F) {
	nan := math.Float64bits(math.NaN())
	f.Add([]byte{})
	f.Add(fuzzSeed(fuzzRaw, nan, fuzzRaw, nan, fuzzRaw, nan, fuzzRaw, nan, fuzzRaw, nan))
	f.Add(fuzzSeed(fuzzRaw, math.Float64bits(math.Inf(1)), fuzzSmallInt, 7, fuzzRaw, math.Float64bits(math.Inf(-1)), fuzzSmallInt, 4999, fuzzOnEdge, 9))
	f.Add(fuzzSeed(fuzzOnEdge, 3, fuzzSmallInt, 1<<16-1, fuzzAboveEdge, 4, fuzzFraction, 1<<16-3, fuzzBelowEdge, 5))
	f.Add(fuzzSeed(fuzzAboveEdge, 10, fuzzPastCard, 0, fuzzBelowEdge, 0, fuzzPastU16, 3, fuzzOnEdge, 4))
	f.Add(fuzzSeed(fuzzBelowEdge, 3, fuzzFraction, 2, fuzzOnEdge, 5, fuzzRaw, math.Float64bits(-0.25), fuzzRaw, math.Float64bits(1e308)))
	f.Add(fuzzSeed(fuzzSmallInt, 1, fuzzRaw, math.Float64bits(1<<40), fuzzSmallInt, 0, fuzzRaw, math.Float64bits(-1<<40), fuzzSmallInt, 3))

	f.Fuzz(func(t *testing.T, data []byte) {
		row := make([]float64, len(fuzzSchema.Names))
		fuzzRow(data, row)
		// Beside other rows, so the row also rides the 8-row group.
		batch := make([][]float64, 9)
		for i := range batch {
			batch[i] = make([]float64, len(row))
			fuzzRow(fuzzSeed(fuzzSmallInt, uint64(i), fuzzSmallInt, uint64(i), fuzzOnEdge, uint64(i), fuzzSmallInt, uint64(3*i), fuzzAboveEdge, uint64(i)), batch[i])
		}
		at := len(data) % len(batch)
		batch[at] = row

		for _, ff := range buildFuzzForests(t) {
			want := gbdt.TreeLogits(ff.model.InitScores, ff.trees, row)
			wantClass := ff.model.PredictClass(row)
			same := func(entry string, got []float64) {
				t.Helper()
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("%d classes, row %v, %s: class %d logit %v, the trees %v", len(want), row, entry, k, got[k], want[k])
					}
				}
			}
			k := len(want)
			same("Model.Logits", ff.model.Logits(row))
			same("Logits", ff.forest.Logits(row, nil))
			_, one := ff.forest.PredictClassBatch([][]float64{row}, nil, nil)
			same("PredictClassBatch of one", one)
			classes, scratch := ff.forest.PredictClassBatch(batch, nil, nil)
			same("PredictClassBatch of nine", scratch[at*k:])
			if got := ff.forest.PredictClass(row); got != wantClass || classes[at] != wantClass {
				t.Fatalf("%d classes, row %v: PredictClass %d, PredictClassBatch %d, model %d", k, row, got, classes[at], wantClass)
			}

			ids := true
			for feat, card := range ff.binner.Cards {
				// The negated form also turns NaN away.
				if v := row[feat]; card > 0 && !(v >= 0 && v < float64(card)) {
					ids = false
				}
			}
			if !ids {
				continue
			}
			bins := ff.binner.Bin(row, nil)
			if err := ff.binner.ValidateBins(bins); err != nil {
				t.Fatalf("row %v binned to %v: %v", row, bins, err)
			}
			classes, scratch = ff.forest.PredictClassBinned(bins, nil, nil)
			same("PredictClassBinned scratch", scratch)
			if classes[0] != wantClass {
				t.Fatalf("%d classes, row %v as bins %v: class %d, model %d", k, row, bins, classes[0], wantClass)
			}
		}
	})
}
