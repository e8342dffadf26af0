package gbdt

import (
	"fmt"
	"math"
)

// flatNode is the cache-friendly node layout used by Forest: 24 bytes,
// no per-node slices. Leaves carry their value in Threshold and
// self-loop (Left == Right == own index) as numeric splits, which lets
// batched traversal run a fixed number of cheap descent steps per tree
// with no leaf branch. Categorical splits reference a shared bitset
// arena via a packed offset+length word (nonzero only for categorical
// splits, whose CatPack is zero). The packing keeps the node at 24
// bytes.
type flatNode struct {
	Threshold float64
	Feature   int32
	Left      int32
	Right     int32
	// CatPack is 0 for numeric splits (and leaves); for categorical
	// splits its low 6 bits hold the bitset length in 64-bit words and
	// the high bits the word offset into the shared arena.
	CatPack uint32
}

// catPackWordBits is the CatPack bit width of the bitset length.
const catPackWordBits = 6

// Forest is a Model compiled into a flat node array for fast inference.
// All trees live in one contiguous slice with absolute child indices,
// categorical split sets become O(1) bitset probes in a shared arena,
// and batch prediction walks one tree over a whole row block while the
// tree's nodes stay hot in cache. A Forest is immutable after Compile
// and safe for concurrent use.
type Forest struct {
	NumClasses  int
	NumFeatures int
	initScores  []float64
	nodes       []flatNode
	catBits     []uint64
	// Trees are stored class-major (all of class 0 in round order, then
	// class 1, ...): per-class logit sums are independent, so this
	// ordering is bit-identical to the model's round-major accumulation
	// while letting the batch kernel keep one class's partial sums in
	// registers.
	roots      []int32 // root node index per tree
	treeClass  []int32 // class index per tree, parallel to roots
	treeDepth  []int32 // max leaf depth per tree (descent steps needed)
	classStart []int32 // first tree index of each class, len NumClasses+1
}

// Compile flattens the model into a Forest. The result shares no state
// with the model and can be used concurrently with further training.
func (m *Model) Compile() (*Forest, error) {
	if m.NumClasses < 1 {
		return nil, fmt.Errorf("gbdt: compile: model has %d classes", m.NumClasses)
	}
	f := &Forest{
		NumClasses:  m.NumClasses,
		NumFeatures: m.Schema.NumFeatures(),
		initScores:  append([]float64(nil), m.InitScores...),
	}
	for k := 0; k < m.NumClasses; k++ {
		f.classStart = append(f.classStart, int32(len(f.roots)))
		for r, round := range m.Trees {
			if k >= len(round) {
				return nil, fmt.Errorf("gbdt: compile: round %d has %d trees, class %d missing", r, len(round), k)
			}
			tree := round[k]
			if len(tree.Nodes) == 0 {
				return nil, fmt.Errorf("gbdt: compile: empty tree for class %d", k)
			}
			base := int32(len(f.nodes))
			f.roots = append(f.roots, base)
			f.treeClass = append(f.treeClass, int32(k))
			for i := range tree.Nodes {
				n := &tree.Nodes[i]
				self := base + int32(i)
				if n.IsLeaf {
					// Feature 0 keeps the descent loop's row access in
					// bounds; the self-loop makes the step a no-op.
					f.nodes = append(f.nodes, flatNode{Threshold: n.Value, Left: self, Right: self})
					continue
				}
				if n.Left <= i || n.Left >= len(tree.Nodes) || n.Right <= i || n.Right >= len(tree.Nodes) {
					return nil, fmt.Errorf("gbdt: compile: tree node %d has out-of-order children (%d, %d); trees must be stored pre-order",
						i, n.Left, n.Right)
				}
				fn := flatNode{
					Feature:   int32(n.Feature),
					Threshold: n.Threshold,
					Left:      base + int32(n.Left),
					Right:     base + int32(n.Right),
				}
				if n.Kind == Categorical {
					words := uint32(0)
					for _, c := range n.LeftCats {
						if w := uint32(c>>6) + 1; w > words {
							words = w
						}
					}
					if words > (1<<catPackWordBits)-1 {
						return nil, fmt.Errorf("gbdt: compile: categorical split on feature %d needs %d bitset words (max %d)",
							n.Feature, words, (1<<catPackWordBits)-1)
					}
					if uint64(len(f.catBits)) > (1<<(32-catPackWordBits))-1 {
						return nil, fmt.Errorf("gbdt: compile: categorical bitset arena exceeds %d words; CatPack offset would overflow",
							(1<<(32-catPackWordBits))-1)
					}
					fn.CatPack = uint32(len(f.catBits))<<catPackWordBits | words
					bits := make([]uint64, words)
					for _, c := range n.LeftCats {
						bits[c>>6] |= 1 << uint(c&63)
					}
					f.catBits = append(f.catBits, bits...)
				}
				f.nodes = append(f.nodes, fn)
			}
			f.treeDepth = append(f.treeDepth, maxLeafDepth(tree))
		}
	}
	f.classStart = append(f.classStart, int32(len(f.roots)))
	return f, nil
}

// maxLeafDepth returns the deepest leaf level of a tree (root = 0).
func maxLeafDepth(t *Tree) int32 {
	depths := make([]int32, len(t.Nodes))
	var max int32
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.IsLeaf {
			if depths[i] > max {
				max = depths[i]
			}
			continue
		}
		// Children always follow their parent in the node slice
		// (pre-order append), so a single forward pass fills depths.
		depths[n.Left] = depths[i] + 1
		depths[n.Right] = depths[i] + 1
	}
	return max
}

// MustCompile is Compile panicking on error, for hot-path setup code
// whose model is known valid.
func (m *Model) MustCompile() *Forest {
	f, err := m.Compile()
	if err != nil {
		panic(err)
	}
	return f
}

// step advances one descent level from node idx for row. At a leaf it
// returns idx unchanged (self-loop). The numeric path is written so the
// compiler emits a conditional move instead of a data-dependent branch:
// NaN makes v > Threshold false, which routes missing values left
// exactly like the Tree traversal.
func (f *Forest) step(idx int32, row []float64) int32 {
	n := &f.nodes[idx]
	v := row[n.Feature]
	if n.CatPack == 0 {
		next := n.Left
		if v > n.Threshold {
			next = n.Right
		}
		return next
	}
	return stepCatBits(f.catBits, n, v)
}

// stepCatBits resolves a categorical split with one bitset probe
// against the pre-hoisted arena slice (the batch kernel passes it as a
// local to avoid re-loading through f). Missing (NaN), negative and
// out-of-vocabulary ids route right, like containsCat.
func stepCatBits(bits []uint64, n *flatNode, v float64) int32 {
	if math.IsNaN(v) {
		return n.Right
	}
	// Truncate before the sign check, exactly like containsCat: values
	// in (-1, 0) truncate to category 0 and must probe, not short-cut.
	sid := int32(v)
	if sid < 0 {
		return n.Right
	}
	id := uint32(sid)
	w := id >> 6
	if w >= n.CatPack&((1<<catPackWordBits)-1) {
		return n.Right
	}
	if bits[(n.CatPack>>catPackWordBits)+w]>>(id&63)&1 == 1 {
		return n.Left
	}
	return n.Right
}

// walk evaluates one tree on one row with early exit at leaves.
func (f *Forest) walk(root int32, row []float64) float64 {
	idx := root
	for {
		next := f.step(idx, row)
		if next == idx {
			return f.nodes[idx].Threshold
		}
		idx = next
	}
}

// Logits computes raw class scores for one row into out (allocated when
// nil or too short). Equivalent to Model.Logits on the source model.
func (f *Forest) Logits(row []float64, out []float64) []float64 {
	if cap(out) < f.NumClasses {
		out = make([]float64, f.NumClasses)
	}
	out = out[:f.NumClasses]
	copy(out, f.initScores)
	for t, root := range f.roots {
		out[f.treeClass[t]] += f.walk(root, row)
	}
	return out
}

// PredictClass returns the argmax class for one row.
func (f *Forest) PredictClass(row []float64) int {
	var buf [32]float64
	var logits []float64
	if f.NumClasses <= len(buf) {
		logits = f.Logits(row, buf[:0])
	} else {
		logits = f.Logits(row, nil)
	}
	return argmax(logits)
}

// batchBlock is the row-block size for batched traversal: each tree is
// walked over a full block before moving to the next tree, so the
// tree's nodes stay resident in L1 across the block while the total
// forest working set can be many megabytes. 64 rows keeps the block's
// feature rows plus one tree comfortably inside a 32 KiB L1D.
const batchBlock = 64

// PredictBatch computes per-row logits for a block of rows. It walks
// trees over row blocks (tree-major within each block) rather than rows
// over trees, which is substantially faster for paper-scale forests
// (hundreds of trees) because each tree's nodes are reused across the
// block instead of being evicted between rows, and four rows descend
// each tree in lockstep to hide cache-miss latency.
func (f *Forest) PredictBatch(rows [][]float64) [][]float64 {
	flat := f.PredictBatchInto(rows, nil)
	out := make([][]float64, len(rows))
	for i := range out {
		out[i] = flat[i*f.NumClasses : (i+1)*f.NumClasses]
	}
	return out
}

// PredictBatchInto is PredictBatch writing logits into a reusable flat
// buffer laid out row-major (len(rows) x NumClasses). The buffer is the
// caller's scratch for the whole kernel: the spare capacity behind the
// logits holds the row tile, so a caller that hands the returned slice
// back on its next call allocates nothing, whatever the row count does
// below the next block boundary.
//
// The kernel iterates block -> class -> 8-row group -> class trees:
// eight rows descend each tree in lockstep for its fixed depth
// (self-looping leaves make early exits unnecessary, and the eight
// independent chains overlap node-load latency), and one class's
// partial sums stay in registers across all its trees, touching the
// logits buffer once per class per row. The step is hand-inlined (the
// method form exceeds the inlining budget): the numeric compare
// compiles to a conditional move and the rarer categorical probe is an
// outlined call.
func (f *Forest) PredictBatchInto(rows [][]float64, logits []float64) []float64 {
	n := len(rows)
	k := f.NumClasses
	nodes := f.nodes
	bits := f.catBits
	nf := f.NumFeatures
	if cap(logits) < n*k+batchBlock*nf {
		// Logits are sized to whole blocks so that batches wandering
		// between sizes share one buffer.
		blocks := (n + batchBlock - 1) / batchBlock
		logits = make([]float64, blocks*batchBlock*k+batchBlock*nf)
	}
	// acc accumulates one class's partial sums for the current block in
	// contiguous, L1-resident scratch; the strided logits buffer is
	// touched once per class per block. tile holds the block's feature
	// rows packed contiguously, so each descent lane carries one integer
	// offset instead of a full slice header — with eight lanes in
	// flight, that halves the kernel's register pressure. Every tile row
	// a lane reads was copied in for this block, so what an earlier call
	// left there is never seen.
	var acc [batchBlock]float64
	tile := logits[n*k : n*k+batchBlock*nf]
	logits = logits[:n*k]
	for start := 0; start < n; start += batchBlock {
		end := start + batchBlock
		if end > n {
			end = n
		}
		for i := start; i < end; i++ {
			copy(tile[(i-start)*nf:(i-start+1)*nf], rows[i][:nf])
		}
		for kc := 0; kc < k; kc++ {
			tLo, tHi := f.classStart[kc], f.classStart[kc+1]
			// Seed with the class init score so the summation order is
			// exactly Model.Logits' (init first, then trees in round
			// order) — bit-identical logits, never an ulp-flipped argmax.
			init := f.initScores[kc]
			for j := range acc {
				acc[j] = init
			}
			for t := tLo; t < tHi; t++ {
				root := f.roots[t]
				depth := f.treeDepth[t]
				i := start
				for ; i+8 <= end; i += 8 {
					o0 := (i - start) * nf
					o1, o2, o3 := o0+nf, o0+2*nf, o0+3*nf
					o4, o5, o6, o7 := o0+4*nf, o0+5*nf, o0+6*nf, o0+7*nf
					i0, i1, i2, i3 := root, root, root, root
					i4, i5, i6, i7 := root, root, root, root
					for d := int32(0); d < depth; d++ {
						n0 := &nodes[i0]
						if v := tile[o0+int(n0.Feature)]; n0.CatPack != 0 {
							i0 = stepCatBits(bits, n0, v)
						} else if i0 = n0.Left; v > n0.Threshold {
							i0 = n0.Right
						}
						n1 := &nodes[i1]
						if v := tile[o1+int(n1.Feature)]; n1.CatPack != 0 {
							i1 = stepCatBits(bits, n1, v)
						} else if i1 = n1.Left; v > n1.Threshold {
							i1 = n1.Right
						}
						n2 := &nodes[i2]
						if v := tile[o2+int(n2.Feature)]; n2.CatPack != 0 {
							i2 = stepCatBits(bits, n2, v)
						} else if i2 = n2.Left; v > n2.Threshold {
							i2 = n2.Right
						}
						n3 := &nodes[i3]
						if v := tile[o3+int(n3.Feature)]; n3.CatPack != 0 {
							i3 = stepCatBits(bits, n3, v)
						} else if i3 = n3.Left; v > n3.Threshold {
							i3 = n3.Right
						}
						n4 := &nodes[i4]
						if v := tile[o4+int(n4.Feature)]; n4.CatPack != 0 {
							i4 = stepCatBits(bits, n4, v)
						} else if i4 = n4.Left; v > n4.Threshold {
							i4 = n4.Right
						}
						n5 := &nodes[i5]
						if v := tile[o5+int(n5.Feature)]; n5.CatPack != 0 {
							i5 = stepCatBits(bits, n5, v)
						} else if i5 = n5.Left; v > n5.Threshold {
							i5 = n5.Right
						}
						n6 := &nodes[i6]
						if v := tile[o6+int(n6.Feature)]; n6.CatPack != 0 {
							i6 = stepCatBits(bits, n6, v)
						} else if i6 = n6.Left; v > n6.Threshold {
							i6 = n6.Right
						}
						n7 := &nodes[i7]
						if v := tile[o7+int(n7.Feature)]; n7.CatPack != 0 {
							i7 = stepCatBits(bits, n7, v)
						} else if i7 = n7.Left; v > n7.Threshold {
							i7 = n7.Right
						}
					}
					j := i - start
					acc[j] += nodes[i0].Threshold
					acc[j+1] += nodes[i1].Threshold
					acc[j+2] += nodes[i2].Threshold
					acc[j+3] += nodes[i3].Threshold
					acc[j+4] += nodes[i4].Threshold
					acc[j+5] += nodes[i5].Threshold
					acc[j+6] += nodes[i6].Threshold
					acc[j+7] += nodes[i7].Threshold
				}
				for ; i < end; i++ {
					acc[i-start] += f.walk(root, rows[i])
				}
			}
			for i := start; i < end; i++ {
				logits[i*k+kc] = acc[i-start]
			}
		}
	}
	return logits
}

// addRoundLogits adds boosting round r's per-class tree outputs for
// rows into the flat row-major logits buffer (len(rows) x NumClasses).
// It walks the compiled flat nodes (bitset categorical probes), which
// is what TrainClassifierWithValidation uses to replay validation
// rounds without per-row Tree.Predict on pointer-chasing node slices.
func (f *Forest) addRoundLogits(r int, rows [][]float64, logits []float64) {
	k := f.NumClasses
	for c := 0; c < k; c++ {
		root := f.roots[int(f.classStart[c])+r]
		for i, row := range rows {
			logits[i*k+c] += f.walk(root, row)
		}
	}
}

// PredictClassBatch returns the argmax class per row, reusing classes
// and the flat logit scratch buffer when provided.
func (f *Forest) PredictClassBatch(rows [][]float64, classes []int, scratch []float64) ([]int, []float64) {
	scratch = f.PredictBatchInto(rows, scratch)
	if cap(classes) < len(rows) {
		classes = make([]int, len(rows))
	}
	classes = classes[:len(rows)]
	k := f.NumClasses
	for i := range rows {
		classes[i] = argmax(scratch[i*k : (i+1)*k])
	}
	return classes, scratch
}

func argmax(xs []float64) int {
	best, bestV := 0, xs[0]
	for i, v := range xs[1:] {
		if v > bestV {
			best, bestV = i+1, v
		}
	}
	return best
}

// NumTrees returns the number of compiled trees.
func (f *Forest) NumTrees() int { return len(f.roots) }

// NumNodes returns the total flat node count (for size accounting).
func (f *Forest) NumNodes() int { return len(f.nodes) }

// TreeDepth returns tree t's fixed descent depth (for diagnostics).
func (f *Forest) TreeDepth(t int) int32 { return f.treeDepth[t] }

// PathLen returns the number of real descent steps tree t takes for a
// row before reaching its leaf (for diagnostics).
func (f *Forest) PathLen(t int32, row []float64) int {
	idx := f.roots[t]
	steps := 0
	for {
		next := f.step(idx, row)
		if next == idx {
			return steps
		}
		idx = next
		steps++
	}
}
