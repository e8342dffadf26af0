package gbdt_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/features"
	"repro/internal/gbdt"
	"repro/internal/perf"
	"repro/internal/trace"
)

// binnedFixture is a trained model, the dataset and labels it was
// trained on, encoded rows to run it on, and the things that have to
// agree with it, the trees training grew among them.
type binnedFixture struct {
	model  *gbdt.Model
	forest *gbdt.Forest
	binner *features.Binner
	trees  [][]*gbdt.Tree
	ds     *gbdt.Dataset
	labels []int
	rows   [][]float64
}

func newBinnedFixture(tb testing.TB, m *gbdt.Model, trees [][]*gbdt.Tree, ds *gbdt.Dataset, labels []int, rows [][]float64) *binnedFixture {
	tb.Helper()
	forest, err := m.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	binner, err := features.BinnerForModel(m)
	if err != nil {
		tb.Fatal(err)
	}
	return &binnedFixture{model: m, forest: forest, binner: binner, trees: trees, ds: ds, labels: labels, rows: rows}
}

// smallBinnedFixture trains a 3-class model on numeric and categorical
// features with missing values, in well under a second.
func smallBinnedFixture(tb testing.TB) *binnedFixture {
	tb.Helper()
	const n = 600
	rng := rand.New(rand.NewSource(11))
	schema := &gbdt.Schema{
		Names: []string{"x0", "cat0", "x1", "cat1"},
		Kinds: []gbdt.FeatureKind{gbdt.Numeric, gbdt.Categorical, gbdt.Numeric, gbdt.Categorical},
		Cards: []int{0, 9, 0, 200},
	}
	ds := gbdt.NewDataset(schema, n)
	labels := make([]int, n)
	rows := make([][]float64, n)
	for i := range rows {
		x0, c0 := rng.NormFloat64(), float64(rng.Intn(9))
		x1, c1 := math.Round(rng.Float64()*40)/4, float64(rng.Intn(200))
		if rng.Float64() < 0.05 {
			x1 = math.NaN()
		}
		rows[i] = []float64{x0, c0, x1, c1}
		for f, v := range rows[i] {
			ds.Set(i, f, v)
		}
		switch {
		case x0 > 0.3 && int(c1)%3 == 0:
			labels[i] = 2
		case x1 > 5 || c0 >= 6:
			labels[i] = 1
		}
	}
	cfg := gbdt.DefaultConfig()
	cfg.NumRounds, cfg.MaxDepth = 12, 5
	m, trees, err := gbdt.TrainClassifierTrees(ds, labels, 3, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return newBinnedFixture(tb, m, trees, ds, labels, rows)
}

var paper struct {
	once sync.Once
	fx   *binnedFixture
	err  error
}

// paperBinnedFixture is the benchmark's seed-1 paper-scale model (15
// categories x 60 rounds of depth 6) and its whole replay pool, encoded.
func paperBinnedFixture(tb testing.TB) *binnedFixture {
	tb.Helper()
	if testing.Short() {
		tb.Skip("paper-scale fixture trains for seconds")
	}
	paper.once.Do(func() {
		f, err := perf.NewFixture(1, false)
		if err != nil {
			paper.err = err
			return
		}
		// core.TrainCategoryModel's steps, with the trees kept.
		opts := f.TrainOptions(perf.ScalePaper)
		labeler, err := core.FitLabeler(f.Train, f.Cost, opts.NumCategories)
		if err != nil {
			paper.err = err
			return
		}
		enc := features.BuildEncoder(f.Train, core.MaxVocab)
		ds, labels := enc.Dataset(f.Train), labeler.Labels(f.Train, f.Cost)
		m, trees, err := gbdt.TrainClassifierTrees(ds, labels, opts.NumCategories, opts.GBDT)
		if err != nil {
			paper.err = err
			return
		}
		rows := make([][]float64, len(f.Pool))
		for i, j := range f.Pool {
			rows[i] = enc.Encode(j, nil)
		}
		paper.fx = newBinnedFixture(tb, m, trees, ds, labels, rows)
	})
	if paper.err != nil {
		tb.Fatal(paper.err)
	}
	return paper.fx
}

func forEachBinnedFixture(t *testing.T, fn func(t *testing.T, fx *binnedFixture)) {
	t.Run("small", func(t *testing.T) { fn(t, smallBinnedFixture(t)) })
	t.Run("paper", func(t *testing.T) { fn(t, paperBinnedFixture(t)) })
}

// TestBinnedSplitProperty is why walking bins is exact. For every
// numeric split of a trained model, with threshold t compiled to edge j:
// t is edge j, a value on the threshold bins to at most j (left) and
// the next float above it to more than j (right), by the client's
// binner and by the forest's own; the two hold the same edges, so a
// client's bins are the forest's bins; and the largest bins ValidateBins
// lets through route as Tree.Predict routes +Inf and the last id.
func TestBinnedSplitProperty(t *testing.T) {
	forEachBinnedFixture(t, func(t *testing.T, fx *binnedFixture) {
		edges := fx.forest.Edges()
		if len(edges) != len(fx.binner.Edges) {
			t.Fatalf("forest has %d features, binner %d", len(edges), len(fx.binner.Edges))
		}
		for feat := range edges {
			if len(edges[feat]) != len(fx.binner.Edges[feat]) {
				t.Fatalf("feature %d: forest has %d edges, binner %d", feat, len(edges[feat]), len(fx.binner.Edges[feat]))
			}
			for j, e := range edges[feat] {
				if e != fx.binner.Edges[feat][j] {
					t.Fatalf("feature %d edge %d: forest %v, binner %v", feat, j, e, fx.binner.Edges[feat][j])
				}
			}
		}

		nf := fx.forest.NumFeatures
		row := make([]float64, nf)
		binned, own := make([]uint16, nf), make([]uint16, nf)
		splits := 0
		for r, round := range fx.trees {
			for k, tree := range round {
				for i := range tree.Nodes {
					n := &tree.Nodes[i]
					if n.IsLeaf || n.Kind != uint8(gbdt.Numeric) {
						continue
					}
					splits++
					feat, j := fx.forest.SplitBin(r, k, i)
					if feat != int(n.Feature) || edges[feat][j] != n.Threshold {
						t.Fatalf("round %d class %d node %d: split on feature %d at %v compiled to feature %d edge %d",
							r, k, i, n.Feature, n.Threshold, feat, j)
					}
					for _, c := range []struct {
						v    float64
						left bool
					}{
						{n.Threshold, true},
						{math.Nextafter(n.Threshold, math.Inf(1)), false},
						{math.Nextafter(n.Threshold, math.Inf(-1)), true},
						{math.Inf(-1), true},
						{math.Inf(1), false},
						{math.NaN(), true},
					} {
						row[feat] = c.v
						binned = fx.binner.Bin(row, binned)
						fx.forest.BinRow(row, own)
						if binned[feat] != own[feat] {
							t.Fatalf("feature %d value %v: binner bin %d, forest bin %d", feat, c.v, binned[feat], own[feat])
						}
						if (own[feat] <= j) != c.left {
							t.Fatalf("feature %d value %v against threshold %v (edge %d): bin %d, want left = %v",
								feat, c.v, n.Threshold, j, own[feat], c.left)
						}
					}
					row[feat] = 0
				}
			}
		}
		if splits == 0 {
			t.Fatal("fixture has no numeric split")
		}

		// The extreme legal wire row.
		for feat := range row {
			if card := fx.binner.Cards[feat]; card > 0 {
				binned[feat], row[feat] = uint16(card-1), float64(card-1)
			} else {
				binned[feat], row[feat] = uint16(len(edges[feat])), math.Inf(1)
			}
		}
		if err := fx.binner.ValidateBins(binned); err != nil {
			t.Fatal(err)
		}
		classes, logits := fx.forest.PredictClassBinned(binned, nil, nil)
		want := fx.model.Logits(row)
		for k := range want {
			if logits[k] != want[k] {
				t.Fatalf("extreme row, class %d: binned logit %v, Model.Logits %v", k, logits[k], want[k])
			}
		}
		if classes[0] != fx.model.PredictClass(row) {
			t.Fatalf("extreme row: class %d, model %d", classes[0], fx.model.PredictClass(row))
		}
	})
}

// TestForestEntriesBitIdentical: over every row of the fixture (at paper
// scale the benchmark's 16,384-row pool), Model.Logits, the reference,
// returns Tree.Predict summed over the trees training grew exactly, each
// Forest entry returns Model.Logits' float64s exactly, and each class
// entry their argmax; the client's Bin and the forest's own binning
// produce the same row.
func TestForestEntriesBitIdentical(t *testing.T) {
	forEachBinnedFixture(t, func(t *testing.T, fx *binnedFixture) {
		f, rows := fx.forest, fx.rows
		k, nf := f.NumClasses, f.NumFeatures
		want := make([][]float64, len(rows))
		wantClass := make([]int, len(rows))
		tile := make([]uint16, len(rows)*nf)
		own := make([]uint16, nf)
		for i, row := range rows {
			want[i] = fx.model.Logits(row)
			for c, v := range gbdt.TreeLogits(fx.model.InitScores, fx.trees, row) {
				if v != want[i][c] {
					t.Fatalf("row %d class %d: Model.Logits %v, the trees %v", i, c, want[i][c], v)
				}
			}
			for c, v := range want[i] { // Model.PredictClass' argmax: first of the largest
				if v > want[i][wantClass[i]] {
					wantClass[i] = c
				}
			}
			bins := fx.binner.Bin(row, tile[i*nf:(i+1)*nf])
			if err := fx.binner.ValidateBins(bins); err != nil {
				t.Fatalf("row %d: %v", i, err)
			}
			f.BinRow(row, own)
			for feat := range own {
				if own[feat] != bins[feat] {
					t.Fatalf("row %d feature %d: binner bin %d, forest bin %d", i, feat, bins[feat], own[feat])
				}
			}
		}
		same := func(entry string, i int, got []float64) {
			t.Helper()
			for c := range want[i] {
				if got[c] != want[i][c] {
					t.Fatalf("%s, row %d class %d: %v, Model.Logits %v", entry, i, c, got[c], want[i][c])
				}
			}
		}

		// Single-row entries on a sample (they stream the whole forest
		// per row), batch entries on everything, in batches whose sizes
		// walk through every remainder of the 8-row group and the
		// 64-row block.
		var out []float64
		for i := 0; i < len(rows); i += 37 {
			out = f.Logits(rows[i], out)
			same("Logits", i, out)
			if got := f.PredictClass(rows[i]); got != wantClass[i] {
				t.Fatalf("PredictClass, row %d: %d, model %d", i, got, wantClass[i])
			}
		}
		var scratch, binScratch []float64
		var classes, binClasses []int
		for start, size := 0, 1; start < len(rows); start, size = start+size, size%131+1 {
			end := min(start+size, len(rows))
			classes, scratch = f.PredictClassBatch(rows[start:end], classes, scratch)
			binClasses, binScratch = f.PredictClassBinned(tile[start*nf:end*nf], binClasses, binScratch)
			for i := start; i < end; i++ {
				at := (i - start) * k
				same("PredictClassBatch scratch", i, scratch[at:at+k])
				same("PredictClassBinned scratch", i, binScratch[at:at+k])
				if classes[i-start] != wantClass[i] || binClasses[i-start] != wantClass[i] {
					t.Fatalf("row %d: PredictClassBatch %d, PredictClassBinned %d, model %d",
						i, classes[i-start], binClasses[i-start], wantClass[i])
				}
			}
		}
	})
}

// BenchmarkPaperForest times the two class entries on the paper-scale
// forest at the batch sizes serving sees: a row on its own, a tail, one
// group of eight, a typical shard batch and a whole block.
//
//	go test -run '^$' -bench BenchmarkPaperForest -benchtime 200x ./internal/gbdt
func BenchmarkPaperForest(b *testing.B) {
	fx := paperBinnedFixture(b)
	f, nf := fx.forest, fx.forest.NumFeatures
	tile := make([]uint16, len(fx.rows)*nf)
	for i, row := range fx.rows {
		fx.binner.Bin(row, tile[i*nf:(i+1)*nf])
	}
	var classes []int
	var scratch []float64
	for _, size := range []int{1, 4, 8, 14, 64} {
		for _, entry := range []string{"binned", "float"} {
			b.Run(fmt.Sprintf("%s/rows=%d", entry, size), func(b *testing.B) {
				at := 0
				for i := 0; i < b.N; i++ {
					if at+size > len(fx.rows) {
						at = 0
					}
					if entry == "binned" {
						classes, scratch = f.PredictClassBinned(tile[at*nf:(at+size)*nf], classes, scratch)
					} else {
						classes, scratch = f.PredictClassBatch(fx.rows[at:at+size], classes, scratch)
					}
					at += size
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size)/1000, "us/row")
			})
		}
	}
}

// BenchmarkPaperModelSaveLoad times the paper-scale model file: Save
// reads every tree back off the forest and writes it, Load decodes,
// validates and compiles the trees and drops them.
//
//	go test -run '^$' -bench BenchmarkPaperModelSaveLoad -benchtime 1x ./internal/gbdt
func BenchmarkPaperModelSaveLoad(b *testing.B) {
	m := paperBinnedFixture(b).model
	var file bytes.Buffer
	if err := m.Save(&file); err != nil {
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		b.SetBytes(int64(file.Len()))
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := m.Save(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.SetBytes(int64(file.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := gbdt.Load(bytes.NewReader(file.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPaperTrain times training the paper-scale model on its
// dataset and labels, with one and two workers.
//
//	go test -run '^$' -bench BenchmarkPaperTrain -benchtime 1x ./internal/gbdt
func BenchmarkPaperTrain(b *testing.B) {
	fx := paperBinnedFixture(b)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := fx.model.Config
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := gbdt.TrainClassifier(fx.ds, fx.labels, fx.model.NumClasses, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSmallTrain times a scenario-scale training, 6 rounds of 6
// classes on a few thousand generated jobs, with one and two workers:
// the models BYOM trains per workload and retrains online, where what
// a training costs once outweighs its 36 trees. -benchmem reports its
// allocations.
//
//	go test -run '^$' -bench BenchmarkSmallTrain -benchmem ./internal/gbdt
func BenchmarkSmallTrain(b *testing.B) {
	cfg := trace.DefaultGeneratorConfig("C0", 1)
	cfg.DurationSec, cfg.NumUsers = 4*24*3600, 8
	jobs := trace.NewGenerator(cfg).Generate().Jobs
	opts := core.DefaultTrainOptions()
	opts.NumCategories, opts.GBDT.NumRounds = 6, 6
	cm := cost.Default()
	labeler, err := core.FitLabeler(jobs, cm, opts.NumCategories)
	if err != nil {
		b.Fatal(err)
	}
	ds, labels := features.BuildEncoder(jobs, core.MaxVocab).Dataset(jobs), labeler.Labels(jobs, cm)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := opts.GBDT
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := gbdt.TrainClassifier(ds, labels, opts.NumCategories, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainPrefix times the serial work before the first boosting
// round of the paper-scale training, with one and two workers:
// BuildEncoder and Dataset over the seed-1 fixture's training jobs, then
// binning and the engine's row-major matrix.
//
//	go test -run '^$' -bench BenchmarkTrainPrefix -benchtime 10x ./internal/gbdt
func BenchmarkTrainPrefix(b *testing.B) {
	f, err := perf.NewFixture(1, false)
	if err != nil {
		b.Fatal(err)
	}
	opts := f.TrainOptions(perf.ScalePaper)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := opts.GBDT
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				enc := features.BuildEncoder(f.Train, core.MaxVocab)
				gbdt.PrepareTraining(enc.Dataset(f.Train), opts.NumCategories, cfg)
			}
		})
	}
}
