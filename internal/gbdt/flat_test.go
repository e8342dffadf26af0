package gbdt

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// trainFlatFixture trains a small classifier over mixed numeric and
// categorical features for the Forest equivalence tests.
func trainFlatFixture(t testing.TB, n, rounds int) (*Model, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	schema := &Schema{
		Names: []string{"x0", "x1", "cat0", "x2"},
		Kinds: []FeatureKind{Numeric, Numeric, Categorical, Numeric},
		Cards: []int{0, 0, 8, 0},
	}
	ds := NewDataset(schema, n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		x0 := rng.NormFloat64()
		x1 := rng.Float64() * 10
		c := float64(rng.Intn(8))
		x2 := rng.NormFloat64()
		if rng.Float64() < 0.05 {
			x2 = math.NaN() // exercise missing-value routing
		}
		ds.Set(i, 0, x0)
		ds.Set(i, 1, x1)
		ds.Set(i, 2, c)
		ds.Set(i, 3, x2)
		switch {
		case x0 > 0.5 && c >= 4:
			labels[i] = 2
		case x1 > 5:
			labels[i] = 1
		default:
			labels[i] = 0
		}
	}
	cfg := DefaultConfig()
	cfg.NumRounds = rounds
	cfg.MaxDepth = 4
	m, err := TrainClassifier(ds, labels, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = ds.Row(i, nil)
	}
	return m, rows
}

func TestForestMatchesModel(t *testing.T) {
	m, rows := trainFlatFixture(t, 400, 12)
	f, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if want := m.Config.NumRounds * m.NumClasses; f.NumTrees() != want {
		t.Fatalf("forest has %d trees, want %d", f.NumTrees(), want)
	}
	var logitBuf []float64
	for i, row := range rows {
		want := m.Logits(row)
		logitBuf = f.Logits(row, logitBuf)
		for k := range want {
			if math.Abs(want[k]-logitBuf[k]) > 1e-12 {
				t.Fatalf("row %d class %d: forest logit %g != model %g", i, k, logitBuf[k], want[k])
			}
		}
		if got, want := f.PredictClass(row), m.PredictClass(row); got != want {
			t.Fatalf("row %d: forest class %d != model %d", i, got, want)
		}
	}
}

func TestForestPredictBatchMatchesPerRow(t *testing.T) {
	m, rows := trainFlatFixture(t, 700, 10) // > batchBlock rows to cross a block boundary
	f := Compiled(t, m)
	classes, logits := f.PredictClassBatch(rows, nil, nil)
	for i, row := range rows {
		want := m.Logits(row)
		for k := range want {
			if got := logits[i*f.NumClasses+k]; math.Abs(want[k]-got) > 1e-12 {
				t.Fatalf("row %d class %d: batch logit %g != model %g", i, k, got, want[k])
			}
		}
		if want := m.PredictClass(row); classes[i] != want {
			t.Fatalf("row %d: batch class %d != model %d", i, classes[i], want)
		}
	}
}

func TestForestBufferReuse(t *testing.T) {
	m, rows := trainFlatFixture(t, 300, 6)
	f := Compiled(t, m)
	classes, scratch := f.PredictClassBatch(rows[:100], nil, nil)
	classes2, scratch2 := f.PredictClassBatch(rows[100:200], classes, scratch)
	if &classes2[0] != &classes[0] {
		t.Error("classes buffer was not reused")
	}
	if &scratch2[0] != &scratch[0] {
		t.Error("scratch buffer was not reused")
	}
	for i, row := range rows[100:200] {
		if want := m.PredictClass(row); classes2[i] != want {
			t.Fatalf("row %d: reused-buffer class %d != model %d", i, classes2[i], want)
		}
	}
}

func TestForestRegressor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	schema := &Schema{Names: []string{"x"}, Kinds: []FeatureKind{Numeric}, Cards: []int{0}}
	n := 200
	ds := NewDataset(schema, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := rng.Float64() * 4
		ds.Set(i, 0, x)
		ys[i] = 3 * x
	}
	cfg := DefaultConfig()
	cfg.NumRounds = 15
	m, err := TrainRegressor(ds, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := Compiled(t, m)
	for i := 0; i < n; i++ {
		row := ds.Row(i, nil)
		want := m.Logits(row)[0]
		got := f.Logits(row, nil)[0]
		if math.Abs(want-got) > 1e-12 {
			t.Fatalf("row %d: forest value %g != model %g", i, got, want)
		}
	}
}

// TestPredictClassBatchSteadyStateAllocs is the forest's allocation
// budget: a caller that hands back the scratch it was given allocates
// nothing, through the float entry and through the binned one, across
// row counts on both sides of the 8-lane group and the block boundary,
// and the logits it reads out of that scratch stay bit-equal to
// Model.Logits (the float entry's tile shares the buffer).
func TestPredictClassBatchSteadyStateAllocs(t *testing.T) {
	m, rows := trainFlatFixture(t, 200, 10)
	f := Compiled(t, m)
	nf := f.NumFeatures
	tile := make([]uint16, len(rows)*nf)
	for i, row := range rows {
		f.binRow(row, tile[i*nf:(i+1)*nf])
	}
	sizes := []int{1, 3, 14, 64, 65, 8, 13, 1}
	entries := []struct {
		name    string
		predict func(lo, hi int, classes []int, scratch []float64) ([]int, []float64)
	}{
		{"PredictClassBatch", func(lo, hi int, classes []int, scratch []float64) ([]int, []float64) {
			return f.PredictClassBatch(rows[lo:hi], classes, scratch)
		}},
		{"PredictClassBinned", func(lo, hi int, classes []int, scratch []float64) ([]int, []float64) {
			return f.PredictClassBinned(tile[lo*nf:hi*nf], classes, scratch)
		}},
	}
	for _, e := range entries {
		var classes []int
		var scratch []float64
		for _, n := range sizes { // grow once to the largest size
			classes, scratch = e.predict(0, n, classes, scratch)
		}
		for _, n := range sizes {
			allocs := testing.AllocsPerRun(20, func() {
				classes, scratch = e.predict(0, n, classes, scratch)
			})
			if allocs != 0 {
				t.Errorf("%s with its own scratch: %.1f allocations at %d rows, want 0", e.name, allocs, n)
			}
		}
		for _, n := range sizes {
			off := 100 - n // a different window per size, so stale tile rows would show
			classes, scratch = e.predict(off, off+n, classes, scratch)
			for i, row := range rows[off : off+n] {
				want := m.Logits(row)
				for k := range want {
					if got := scratch[i*f.NumClasses+k]; got != want[k] {
						t.Fatalf("%s, %d rows, row %d class %d: logit %v, Model.Logits %v", e.name, n, i, k, got, want[k])
					}
				}
				if classes[i] != m.PredictClass(row) {
					t.Fatalf("%s, %d rows, row %d: class %d, model %d", e.name, n, i, classes[i], m.PredictClass(row))
				}
			}
		}
	}
}

// TestGrowSteadyStateAllocs is the trainer's allocation budget per
// tree: a tree is built in the grower's scratch, sized for its depth,
// its Tree comes from the training's one array of trees, and its Nodes
// and category ids are cut from the grower's chunk slabs, so what is
// left per tree is a share of a chunk: 0.03 on this fixture (3.8 while
// each tree cost its Tree, its exact-length Nodes and the one array of
// its categorical splits' ids; 4.2 before one row pass started each
// round, 4.7 while every round sampled its rows into a new slice, 25.2
// while every popped node, every chunk closure and every improving
// categorical candidate went to the heap). Compiling the trees into
// the model's forest costs per model, not per tree. Two workers hand
// each round to a crew started once per training: 0.00 (4.8 while
// every round started its class and row-pass goroutines, 5.5 before
// class trees were handed out from a shared counter, 5.8 before the
// row pass, 6.3 before the sample buffer).
// The budgets are the readings plus one.
func TestGrowSteadyStateAllocs(t *testing.T) {
	m, rows := trainFlatFixture(t, 2000, 2)
	ds := NewDataset(m.Schema, len(rows))
	labels := make([]int, len(rows))
	for i, row := range rows {
		for feat, v := range row {
			ds.Set(i, feat, v)
		}
		labels[i] = m.PredictClass(row)
	}
	train := func(rounds, workers int) (allocs float64, nodes int) {
		cfg := DefaultConfig()
		cfg.NumRounds, cfg.MaxDepth, cfg.Workers = rounds, 6, workers
		allocs = testing.AllocsPerRun(2, func() {
			model, err := TrainClassifier(ds, labels, 3, cfg)
			if err != nil {
				t.Fatal(err)
			}
			nodes = len(model.forest.nodes)
		})
		return allocs, nodes
	}
	for _, c := range []struct {
		workers int
		budget  float64
	}{{1, 1}, {2, 1}} {
		short, _ := train(10, c.workers)
		long, nodes := train(30, c.workers)
		perTree := (long - short) / (20 * 3)
		t.Logf("workers %d: %.2f allocations per tree (%d nodes in 90 trees)", c.workers, perTree, nodes)
		if perTree > c.budget {
			t.Errorf("workers %d: %.1f allocations per tree, budget %.0f", c.workers, perTree, c.budget)
		}
	}
}

// TestTreeSlabsDoNotAlias: training cuts its trees' Nodes and category
// ids from shared chunks, each tree's capacity clipped to its length,
// so growing one tree after training reallocates it and leaves its
// slab neighbours and the compiled forest as they were.
func TestTreeSlabsDoNotAlias(t *testing.T) {
	fixture, rows := trainFlatFixture(t, 600, 2)
	ds := NewDataset(fixture.Schema, len(rows))
	labels := make([]int, len(rows))
	for i, row := range rows {
		for feat, v := range row {
			ds.Set(i, feat, v)
		}
		labels[i] = int(row[2]) % 3
	}
	cfg := DefaultConfig()
	cfg.NumRounds, cfg.MaxDepth, cfg.Workers = 4, 4, 1
	m, trees, err := TrainClassifierTrees(ds, labels, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With one worker the trees are cut in growth order, so the round-0
	// class-0 tree's arrays end where the class-1 tree's begin.
	first, next := trees[0][0], trees[0][1]
	if len(first.cats) == 0 || len(next.cats) == 0 {
		t.Fatalf("the first two trees have %d and %d category ids, want some in both", len(first.cats), len(next.cats))
	}
	if end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(first.Nodes)), len(first.Nodes)*int(unsafe.Sizeof(Node{}))); end != unsafe.Pointer(&next.Nodes[0]) {
		t.Fatal("the first two trees' nodes are not slab neighbours")
	}
	if end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(first.cats)), 4*len(first.cats)); end != unsafe.Pointer(&next.cats[0]) {
		t.Fatal("the first two trees' category ids are not slab neighbours")
	}
	snapshot := func() (nodes [][]Node, cats [][]int32, model []byte) {
		for _, round := range trees {
			for _, tree := range round {
				nodes = append(nodes, slices.Clone(tree.Nodes))
				cats = append(cats, slices.Clone(tree.cats))
			}
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return nodes, cats, buf.Bytes()
	}
	nodes, cats, model := snapshot()

	first.Nodes = append(first.Nodes, Node{IsLeaf: true, Value: 99})
	first.SetLeftCats(len(first.Nodes)-1, []int32{5, 6, 7})

	gotNodes, gotCats, gotModel := snapshot()
	for i := 1; i < len(nodes); i++ {
		if !slices.Equal(gotNodes[i], nodes[i]) || !slices.Equal(gotCats[i], cats[i]) {
			t.Errorf("tree %d changed when tree 0 grew", i)
		}
	}
	if !bytes.Equal(gotModel, model) {
		t.Error("the model file changed when a trained tree grew")
	}
}

// TestCompileSharedThresholds: compile gathers every numeric split's
// threshold into one array and keeps, per feature, exactly its distinct
// thresholds in ascending order, whichever trees and features share
// them, with no spare capacity; a feature without numeric splits has no
// edges.
func TestCompileSharedThresholds(t *testing.T) {
	schema := &Schema{
		Names: []string{"x", "c", "y", "z"},
		Kinds: []FeatureKind{Numeric, Categorical, Numeric, Numeric},
		Cards: []int{0, 4, 0, 0},
	}
	// stump splits feature f at threshold thr and its left child on the
	// categorical feature.
	stump := func(f int32, thr float64) *Tree {
		return withLeftCats(&Tree{Nodes: []Node{
			{Feature: f, Threshold: thr, Left: 1, Right: 4},
			{Feature: 1, Kind: uint8(Categorical), Left: 2, Right: 3},
			{IsLeaf: true, Value: 1}, {IsLeaf: true, Value: 2}, {IsLeaf: true, Value: 3},
		}}, 1, 1, 2)
	}
	trees := [][]*Tree{
		{stump(0, 2), stump(2, 2)},
		{stump(0, -1), stump(2, 2)},
		{stump(0, 2), stump(0, 0.5)},
		{stump(2, -3), stump(0, -1)},
	}
	m, err := FromTrees(&Model{Schema: schema, NumClasses: 2, InitScores: []float64{0, 0}}, trees)
	if err != nil {
		t.Fatal(err)
	}
	f := Compiled(t, m)
	want := [][]float64{{-1, 0.5, 2}, nil, {-3, 2}, nil}
	for feat, es := range f.Edges() {
		if !slices.Equal(es, want[feat]) || (es == nil) != (want[feat] == nil) {
			t.Errorf("feature %d: edges %v, want %v", feat, es, want[feat])
		}
	}
	if slack := f.Slack(); slack != 0 {
		t.Errorf("the forest's arrays have room for %d more elements, want 0", slack)
	}
	for _, x := range []float64{-4, -3, -1, 0, 0.5, 1, 2, 3, math.NaN()} {
		row := []float64{x, 1, -x, 0}
		if got, want := f.Logits(row, nil), TreeLogits(m.InitScores, trees, row); !slices.Equal(got, want) {
			t.Errorf("row %v: forest %v, trees %v", row, got, want)
		}
	}
}

// withLeftCats returns t with ids the categories its node i routes
// left: what a tree literal cannot say in its nodes.
func withLeftCats(t *Tree, i int, ids ...int32) *Tree {
	t.SetLeftCats(i, ids)
	return t
}

// TestCompileLargeCategoricalSet: a split may route any uint16 id left,
// because features.MaxCategoricalCard admits 65,536 of them: a set table
// capped below that would let a model publish and then fail to compile.
func TestCompileLargeCategoricalSet(t *testing.T) {
	left := []int32{0, 63, 64, 4031, 4032, 4999}
	tree := withLeftCats(withLeftCats(&Tree{Nodes: []Node{
		{Feature: 0, Kind: uint8(Categorical), Left: 1, Right: 2},
		{IsLeaf: true, Value: 1},
		{Feature: 0, Kind: uint8(Categorical), Left: 3, Right: 4},
		{IsLeaf: true, Value: 2},
		{IsLeaf: true, Value: 3},
	}}, 0, left...), 2, 65535)
	m, err := FromTrees(&Model{
		Schema:     &Schema{Names: []string{"c"}, Kinds: []FeatureKind{Categorical}, Cards: []int{65536}},
		NumClasses: 1,
		InitScores: []float64{0},
	}, [][]*Tree{{tree}})
	if err != nil {
		t.Fatal(err)
	}
	f := Compiled(t, m)
	values := []float64{-1, -0.5, 1, 62, 65, 4030, 5000, 65534, 65535, 65536, 1 << 20, 1 << 40, math.Inf(1), math.NaN()}
	for _, c := range left {
		values = append(values, float64(c))
	}
	for _, v := range values {
		row := []float64{v}
		if got, ref, want := f.Logits(row, nil)[0], m.Logits(row)[0], tree.Predict(row); got != want || ref != want {
			t.Errorf("value %v: forest %v, reference %v, tree %v", v, got, ref, want)
		}
		if _, logits := f.PredictClassBatch([][]float64{row}, nil, nil); logits[0] != tree.Predict(row) {
			t.Errorf("value %v: batch %v, tree %v", v, logits[0], tree.Predict(row))
		}
	}
	// Every id is a legal wire bin at this cardinality.
	for id := 0; id <= maxCategoryID; id++ {
		_, logits := f.PredictClassBinned([]uint16{uint16(id)}, nil, nil)
		if want := tree.Predict([]float64{float64(id)}); logits[0] != want {
			t.Fatalf("binned id %d: forest %v, tree %v", id, logits[0], want)
		}
	}
}

// TestCompileLimits: what the uint16 node fields cannot hold is a typed
// error from the constructor training and Load share, not a wrong
// forest.
func TestCompileLimits(t *testing.T) {
	numeric := func(n int) *Schema {
		s := &Schema{Names: make([]string, n), Kinds: make([]FeatureKind, n), Cards: make([]int, n)}
		for i := range s.Names {
			s.Names[i] = fmt.Sprint("x", i)
		}
		return s
	}
	leaf := &Tree{Nodes: []Node{{IsLeaf: true}}}
	stump := func(threshold float64) *Tree {
		return &Tree{Nodes: []Node{
			{Feature: 0, Threshold: threshold, Left: 1, Right: 2},
			{IsLeaf: true, Value: 1}, {IsLeaf: true, Value: 2},
		}}
	}
	stumps := func(n int) [][]*Tree {
		rounds := make([][]*Tree, n)
		for i := range rounds {
			rounds[i] = []*Tree{stump(float64(i))}
		}
		return rounds
	}
	// A right-leaning chain: node 2i splits, node 2i+1 is its left leaf.
	chain := func(nodes int) *Tree {
		tree := &Tree{Nodes: make([]Node, nodes)}
		for i := 0; i+2 < nodes; i += 2 {
			tree.Nodes[i] = Node{Feature: 0, Threshold: float64(i), Left: int32(i + 1), Right: int32(i + 2)}
			tree.Nodes[i+1] = Node{IsLeaf: true}
		}
		tree.Nodes[nodes-1] = Node{IsLeaf: true}
		return tree
	}
	catSplit := func(left ...int32) *Tree {
		return withLeftCats(&Tree{Nodes: []Node{
			{Feature: 0, Kind: uint8(Categorical), Left: 1, Right: 2},
			{IsLeaf: true}, {IsLeaf: true},
		}}, 0, left...)
	}
	cat := &Schema{Names: []string{"c"}, Kinds: []FeatureKind{Categorical}, Cards: []int{1 << 20}}
	everyID := make([]int32, maxCategoryID+1)
	for i := range everyID {
		everyID[i] = int32(i)
	}
	cases := []struct {
		name    string
		schema  *Schema
		trees   [][]*Tree
		wantMax int // 0: compiles
	}{
		{"65535 features", numeric(maxForestFeatures), [][]*Tree{{leaf}}, 0},
		{"65536 features", numeric(maxForestFeatures + 1), [][]*Tree{{leaf}}, maxForestFeatures},
		{"65534 thresholds", numeric(1), stumps(maxForestEdges), 0},
		{"65535 thresholds", numeric(1), stumps(maxForestEdges + 1), maxForestEdges},
		{"65535-node tree", numeric(1), [][]*Tree{{chain(maxTreeNodes)}}, 0},
		{"65537-node tree", numeric(1), [][]*Tree{{chain(maxTreeNodes + 2)}}, maxTreeNodes},
		{"category id 65536", cat, [][]*Tree{{catSplit(3, maxCategoryID+1)}}, maxCategoryID},
		{"every id but one routed left", cat, [][]*Tree{{catSplit(everyID[1:]...)}}, 0},
		{"every id routed left", cat, [][]*Tree{{catSplit(everyID[:1]...)}, {catSplit(everyID[1:]...)}}, maxCategoryID},
	}
	for _, c := range cases {
		m, err := FromTrees(&Model{Schema: c.schema, NumClasses: 1, InitScores: []float64{0}}, c.trees)
		var limit *LimitError
		switch {
		case c.wantMax == 0 && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.wantMax == 0:
			row := make([]float64, c.schema.NumFeatures())
			want := TreeLogits(m.InitScores, c.trees, row)[0]
			if got, ref := Compiled(t, m).Logits(row, nil)[0], m.Logits(row)[0]; got != want || ref != want {
				t.Errorf("%s: forest %v, reference %v, trees %v", c.name, got, ref, want)
			}
		case !errors.As(err, &limit):
			t.Errorf("%s: error %v, want a *LimitError", c.name, err)
		case limit.Max != c.wantMax || limit.Got <= limit.Max:
			t.Errorf("%s: %v, want a limit of %d exceeded", c.name, err, c.wantMax)
		}
	}
}

// TestCompileStoredOrder: the forest lays a tree out left subtree first
// whatever order the model stores it in, and refuses a graph that is not
// a tree.
func TestCompileStoredOrder(t *testing.T) {
	schema := &Schema{Names: []string{"x", "c"}, Kinds: []FeatureKind{Numeric, Categorical}, Cards: []int{0, 4}}
	// Breadth-first storage, right children before left ones.
	tree := withLeftCats(&Tree{Nodes: []Node{
		{Feature: 0, Threshold: 1, Left: 2, Right: 1},
		{Feature: 1, Kind: uint8(Categorical), Left: 4, Right: 3},
		{Feature: 0, Threshold: -1, Left: 6, Right: 5},
		{IsLeaf: true, Value: 1}, {IsLeaf: true, Value: 2}, {IsLeaf: true, Value: 3}, {IsLeaf: true, Value: 4},
	}}, 1, 1, 3)
	header := &Model{Schema: schema, NumClasses: 1, InitScores: []float64{0.5}}
	m, err := FromTrees(header, [][]*Tree{{tree}})
	if err != nil {
		t.Fatal(err)
	}
	f := Compiled(t, m)
	for _, x := range []float64{-2, -1, 0, 1, 2, math.NaN()} {
		for _, c := range []float64{0, 1, 2, 3, 4, math.NaN()} {
			row := []float64{x, c}
			want := 0.5 + tree.Predict(row)
			if got, ref := f.Logits(row, nil)[0], m.Logits(row)[0]; got != want || ref != want {
				t.Errorf("row %v: forest %v, reference %v, tree %v", row, got, ref, want)
			}
		}
	}
	shared := &Tree{Nodes: []Node{
		{Feature: 0, Threshold: 1, Left: 1, Right: 1},
		{Feature: 0, Threshold: 0, Left: 2, Right: 2},
		{IsLeaf: true},
	}}
	if _, err := FromTrees(header, [][]*Tree{{shared}}); err == nil {
		t.Error("a tree whose nodes share children compiled")
	}
	// A node no path reaches would be lost to the model file.
	unreached := &Tree{Nodes: []Node{
		{Feature: 0, Threshold: 1, Left: 1, Right: 2},
		{IsLeaf: true}, {IsLeaf: true}, {IsLeaf: true},
	}}
	if _, err := FromTrees(header, [][]*Tree{{unreached}}); err == nil {
		t.Error("a tree with a node its root does not reach compiled")
	}
}

func BenchmarkModelPredictPerRow(b *testing.B) {
	m, rows := trainFlatFixture(b, 2000, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.PredictClass(rows[i%len(rows)])
	}
}

func BenchmarkForestPredictBatch(b *testing.B) {
	m, rows := trainFlatFixture(b, 2000, 60)
	f := Compiled(b, m)
	var classes []int
	var scratch []float64
	b.ResetTimer()
	for i := 0; i < b.N; i += len(rows) {
		classes, scratch = f.PredictClassBatch(rows, classes, scratch)
	}
	_ = classes
}

// TestForestCategoricalEdgeValues pins Forest/Tree parity on the odd
// categorical inputs: fractional negatives truncate to 0 (which must
// probe, not short-cut right), ids at the 64-word boundary, unseen ids
// and NaN.
func TestForestCategoricalEdgeValues(t *testing.T) {
	schema := &Schema{
		Names: []string{"c"},
		Kinds: []FeatureKind{Categorical},
		Cards: []int{130},
	}
	tree := withLeftCats(&Tree{Nodes: []Node{
		{Feature: 0, Kind: uint8(Categorical), Left: 1, Right: 2},
		{IsLeaf: true, Value: 1},
		{IsLeaf: true, Value: 2},
	}}, 0, 0, 63, 64, 129)
	m, err := FromTrees(&Model{Schema: schema, NumClasses: 1, InitScores: []float64{0}}, [][]*Tree{{tree}})
	if err != nil {
		t.Fatal(err)
	}
	f := Compiled(t, m)
	for _, v := range []float64{-0.99, -0.5, -1, -1.5, 0, 0.7, 1, 62.9, 63, 64, 65, 128, 129, 130, 500, math.NaN()} {
		row := []float64{v}
		want := tree.Predict(row)
		if got, ref := f.Logits(row, nil)[0], m.Logits(row)[0]; got != want || ref != want {
			t.Errorf("value %v: forest %v, reference %v, tree %v", v, got, ref, want)
		}
		if _, logits := f.PredictClassBatch([][]float64{row}, nil, nil); logits[0] != want {
			t.Errorf("value %v: batch %v, tree %v", v, logits[0], want)
		}
	}
}
