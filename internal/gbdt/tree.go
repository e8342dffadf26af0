package gbdt

import "math"

// Node is one tree node. Leaves carry Value (already scaled by the
// learning rate); internal nodes carry a split. Trees are built only
// while a trainer or Load runs, and compiled into the model's Forest;
// the model file's shape is nodeFile's, not this struct's.
type Node struct {
	// Threshold for numeric splits: x <= Threshold goes left; NaN goes
	// left (missing is treated as -inf).
	Threshold float64
	Value     float64
	Feature   int32
	Left      int32
	Right     int32
	// catLo and catHi bound the node's run of Tree.cats: the sorted
	// category ids a categorical split routes left; ids not listed
	// (including unseen ones) go right.
	catLo, catHi uint32
	// Kind is the split's FeatureKind, held in the byte it needs.
	Kind   uint8
	IsLeaf bool
}

// Tree is a regression tree stored as a node slice; node 0 is the root.
type Tree struct {
	Nodes []Node
	// cats holds the routed-left ids of every categorical split, one
	// sorted run per node in the order the runs were set: one array per
	// tree instead of a slice header on every node and an array per split.
	cats []int32
}

// LeftCats returns the sorted category ids n, a node of t, routes left.
// The slice is the tree's own: read it, do not keep or change it.
func (t *Tree) LeftCats(n *Node) []int32 { return t.cats[n.catLo:n.catHi] }

// SetLeftCats makes a copy of ids, which must be sorted and distinct for
// the tree to validate, the category ids node i routes left. The copy
// goes behind the tree's earlier runs; a run set before stays, unused.
func (t *Tree) SetLeftCats(i int, ids []int32) {
	end, ok := catsEnd(len(t.cats), len(ids))
	if !ok {
		panic("gbdt: a tree's category ids outgrow the uint32 range that addresses them")
	}
	t.Nodes[i].catLo, t.Nodes[i].catHi = uint32(len(t.cats)), end
	t.cats = append(t.cats, ids...)
}

// catsEnd returns where a run of n ids ends that starts behind at
// others, and whether a node's uint32 bounds can say so.
func catsEnd(at, n int) (uint32, bool) {
	end := uint64(at) + uint64(n)
	return uint32(end), end <= math.MaxUint32
}

// splitResult describes the best split found for one node.
type splitResult struct {
	feature  int
	kind     FeatureKind
	bin      int     // numeric: highest bin index routed left
	leftCats []int32 // categorical: category bins routed left
	gain     float64
	found    bool
	// gl, hl are the left side's gradient/hessian sums at the chosen
	// split, taken from the scan's prefix accumulation; the engine
	// derives both children's sums from them instead of re-gathering
	// gradients during partition.
	gl, hl float64
}

// splitGain is the second-order gain of splitting a node whose
// gradient and hessian sums give parentScore into the two sides'.
func splitGain(gl, hl, gr_, hr, parentScore, lambda float64) float64 {
	return 0.5 * (gl*gl/(hl+lambda) + gr_*gr_/(hr+lambda) - parentScore)
}
