package gbdt

import "testing"

// Hooks for the external test package (gbdt_test), which can import
// the packages that import gbdt (features, core, perf).

// Compiled is m.Compile failing tb on an error.
func Compiled(tb testing.TB, m *Model) *Forest {
	tb.Helper()
	f, err := m.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

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

// Cats returns the tree's id array, every categorical split's run.
func (t *Tree) Cats() []int32 { return t.cats }

// CatsEnd is the bound check of a tree's id runs.
func CatsEnd(at, n int) (uint32, bool) { return catsEnd(at, n) }
