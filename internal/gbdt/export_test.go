package gbdt

import (
	"encoding/json"
	"fmt"
	"io"
	"testing"
	"unsafe"
)

// Hooks for the external test package (gbdt_test), which can import
// the packages that import gbdt (features, core, perf).

// Save writes the model file to w: MarshalJSON's bytes and a newline.
func (m *Model) Save(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(m.file()); err != nil {
		return fmt.Errorf("gbdt: encode model: %w", err)
	}
	return nil
}

// Set assigns one cell.
func (d *Dataset) Set(row, col int, v float64) { d.Cols[col][row] = v }

// FromTrees is the constructor training and Load end in: m's header
// and trees[r][k], the round-r tree for class k, validated and compiled
// into a model, so that handmade trees become models too.
func FromTrees(m *Model, trees [][]*Tree) (*Model, error) { return newModel(m, trees, nil) }

// TrainClassifierTrees is TrainClassifier that also returns the trees
// training grew, trees[r][k] the round-r tree for class k, which the
// model keeps only compiled: what a test walks with Tree.Predict.
func TrainClassifierTrees(ds *Dataset, labels []int, numClasses int, cfg Config) (*Model, [][]*Tree, error) {
	return withTrees(trainClassifier(ds, labels, numClasses, cfg))
}

// EngineColumns is how many columns the training engine keeps of ds:
// the features whose rows fall in at least two bins.
func EngineColumns(ds *Dataset, cfg Config) int {
	return len(newHistEngine(ds, buildBinning(ds, cfg.MaxBins, cfg.workers()), cfg, 2).cols)
}

// PrepareTraining is what a training does before its first round: bin
// ds and build the engine, its columns and row-major matrix, for
// numClasses classes.
func PrepareTraining(ds *Dataset, numClasses int, cfg Config) {
	newHistEngine(ds, buildBinning(ds, cfg.MaxBins, cfg.workers()), cfg, numClasses)
}

// withTrees is newModel that also returns the trees it compiled.
func withTrees(m *Model, trees [][]*Tree, err error) (*Model, [][]*Tree, error) {
	m, err = newModel(m, trees, err)
	return m, trees, err
}

// TreeLogits sums Tree.Predict over trees, trees[r][k] the round-r
// tree for class k, in round order on top of init: what the model's
// logits were while it kept its trees.
func TreeLogits(init []float64, trees [][]*Tree, row []float64) []float64 {
	out := append([]float64(nil), init...)
	for _, round := range trees {
		for k, tree := range round {
			out[k] += tree.Predict(row)
		}
	}
	return out
}

// Compiled is m.Compile failing tb on an error.
func Compiled(tb testing.TB, m *Model) *Forest {
	tb.Helper()
	f, err := m.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// ForestNodeBytes is the size of a forest node.
const ForestNodeBytes = unsafe.Sizeof(binNode{})

// Slack returns how many elements the arrays compile sizes in advance
// have room for beyond what they hold, the edges of every feature
// included.
func (f *Forest) Slack() int {
	n := cap(f.nodes) - len(f.nodes) + cap(f.leaves) - len(f.leaves) + cap(f.sets) - len(f.sets) +
		cap(f.arena) - len(f.arena) + cap(f.trees) - len(f.trees) + cap(f.classStart) - len(f.classStart)
	for _, es := range f.edges {
		n += cap(es) - len(es)
	}
	return n
}

// Sets returns how many category sets the forest holds, two per tree
// and one per categorical split.
func (f *Forest) Sets() int { return len(f.sets) }

// Edges returns the forest's per-feature numeric edges.
func (f *Forest) Edges() [][]float64 { return f.edges }

// BinRow is the float entries' quantizer.
func (f *Forest) BinRow(row []float64, out []uint16) { f.binRow(row, out) }

// SplitBin returns the feature and compiled threshold bin of node i of
// the round-r class-k tree, for a model whose trees are stored
// pre-order (every trained one), where the forest keeps node order.
func (f *Forest) SplitBin(r, k, i int) (feat int, bin uint16) {
	n := f.nodes[int(f.trees[int(f.classStart[k])+r].root)+i]
	return int(n.feat), n.thr
}

// CatsEnd is the bound check of a tree's id runs.
func CatsEnd(at, n int) (uint32, bool) { return catsEnd(at, n) }
