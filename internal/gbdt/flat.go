package gbdt

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"unsafe"
)

// binNode is the forest's node: 8 bytes, integers only. A row reaches
// the forest as one uint16 bin per feature (the rows a binary client
// ships), and a node sends it left when
//
//	bin <= thr  AND  bit `bin` of the node's category set is set
//
// with the left child stored right behind its parent and the right
// child `right` nodes further on. The three node kinds differ only in
// which half of that test can fail:
//
//   - numeric split: thr is the threshold's index in the feature's edges
//     and set is the tree's all-ones set, so only the compare decides;
//   - categorical split: thr is 0xFFFF (every bin passes) and set holds
//     the ids routed left;
//   - leaf: the tree's empty set and right = 0, so the step stays put
//     whatever the row holds. thr is the leaf's ordinal in its tree,
//     the index of its value in Forest.leaves.
//
// One step is therefore the same dozen integer instructions for every
// node, with no branch on the node kind.
type binNode struct {
	thr   uint16
	feat  uint16
	set   uint16 // index into the tree's run of Forest.sets
	right uint16
}

// The first two sets of every tree.
const (
	setAll   = 0 // numeric splits: every id is in it
	setNone  = 1 // leaves: no id is in it
	setFirst = 2 // first categorical split of the tree
)

// thrAlways is the thr of a node whose compare must never fail. A bin
// is at most 65,534 on a numeric feature (maxForestEdges) and is not
// compared at all on a categorical one.
const thrAlways = 0xFFFF

// catSet names one category set in Forest.arena: words 64-bit words of
// membership bits ending at index zero, where a zero word stands that
// every id past the set's last word is clamped onto.
type catSet struct {
	zero  uint32
	words uint32
}

// treeRef locates one compiled tree.
type treeRef struct {
	root   int32 // index of the root in Forest.nodes
	sets   int32 // index of the tree's setAll in Forest.sets
	leaves int32 // index of the tree's first leaf value in Forest.leaves
	depth  int32 // deepest leaf level: the descent steps a row needs
}

const (
	// maxForestFeatures, maxForestEdges and maxTreeNodes are what the
	// node's uint16 fields hold: a feature index, a bin (0..len(edges),
	// with 0xFFFF kept for thrAlways) and a child offset or leaf ordinal.
	maxForestFeatures = 65535
	maxForestEdges    = 65534
	maxTreeNodes      = 65535
	// maxCategoryID is the largest id a uint16 bin can carry.
	maxCategoryID = 65535
)

// LimitError reports a model that is valid but larger than the binned
// node layout can address.
type LimitError struct {
	What string // what there is too much of
	Got  int
	Max  int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("gbdt: compile: %s: %d, the binned forest holds at most %d", e.What, e.Got, e.Max)
}

// Forest is a Model compiled for inference on binned rows, and all a
// Model keeps of its trees. A row is one uint16 per feature: on a
// numeric feature the number of split thresholds of the model below the
// value (Forest.edges, which are Model.NumericSplitThresholds and so the
// edges of features.BinnerForModel), on a categorical feature the
// category id. v > t and bin(v) > bin(t) agree for every threshold t of
// the model because t is itself an edge: bin(v) is the smallest i with
// v <= edges[i], so bin(v) <= bin(t) exactly when v <= t.
//
// All trees live in one node array, categorical split sets are bitsets
// in a shared arena, and batch prediction walks one tree over a whole
// row block while the tree stays hot in cache. The float entries
// (Logits, PredictClass, PredictProba, PredictClassBatch) bin their
// rows and run the same traversal as PredictClassBinned. A Forest is
// immutable once compiled and safe for concurrent use.
type Forest struct {
	NumClasses  int
	NumFeatures int
	initScores  []float64
	nodes       []binNode
	leaves      []float64
	sets        []catSet
	arena       []uint64
	// Trees are stored class-major (all of class 0 in round order, then
	// class 1, ...): per-class logit sums are independent, so this
	// ordering is bit-identical to the model's round-major accumulation
	// while letting the batch kernel keep one class's partial sums in
	// registers.
	trees      []treeRef
	classStart []int32 // first tree index of each class, len NumClasses+1

	// edges[f] are numeric feature f's sorted split thresholds; nil for
	// a categorical feature, whose missing[f] is an id no split routes
	// left: what a NaN, negative or out-of-range value is binned to.
	edges   [][]float64
	kinds   []FeatureKind
	missing []uint16
}

// Compile returns the model's one shared, immutable forest, compiled
// when the model was trained or loaded. A Model neither trained nor
// loaded has none, which is the error.
func (m *Model) Compile() (*Forest, error) {
	if m.forest == nil {
		return nil, fmt.Errorf("gbdt: compile: the model was neither trained nor loaded")
	}
	return m.forest, nil
}

// compile validates m's header and trees, deeply enough that nothing
// done with the model can panic, and lays the trees out as a Forest,
// every array at its final size and every feature's edges cut from one
// array (gatherSplits); a *LimitError says what the binned layout
// cannot hold.
func compile(m *Model, trees [][]*Tree) (*Forest, error) {
	if m.Schema == nil {
		return nil, fmt.Errorf("gbdt: model has no schema")
	}
	if err := m.Schema.Validate(); err != nil {
		return nil, err
	}
	switch {
	case m.Schema.NumFeatures() == 0:
		return nil, fmt.Errorf("gbdt: model schema has no features")
	case m.NumClasses < 1:
		return nil, fmt.Errorf("gbdt: model has %d classes", m.NumClasses)
	case len(m.InitScores) != m.NumClasses:
		return nil, fmt.Errorf("gbdt: %d init scores for %d classes", len(m.InitScores), m.NumClasses)
	}
	nf := m.Schema.NumFeatures()
	if nf > maxForestFeatures {
		return nil, &LimitError{"features", nf, maxForestFeatures}
	}
	f := &Forest{
		NumClasses:  m.NumClasses,
		NumFeatures: nf,
		initScores:  slices.Clone(m.InitScores),
		kinds:       slices.Clone(m.Schema.Kinds),
		missing:     make([]uint16, nf),
	}

	// Size pass: every node, leaf, set and set word is counted, and so
	// are each feature's numeric splits and the widest set of its
	// categorical ones, before anything else is allocated.
	var numNodes, numLeaves, numSets, numWords, maxNodes int
	perFeature := make([]int, 2*nf)
	splits, setWidth := perFeature[:nf], perFeature[nf:]
	for r, round := range trees {
		if len(round) != m.NumClasses {
			return nil, fmt.Errorf("gbdt: round %d has %d trees for %d classes", r, len(round), m.NumClasses)
		}
		for k, tree := range round {
			if err := m.validateTree(tree); err != nil {
				return nil, fmt.Errorf("gbdt: round %d class %d: %w", r, k, err)
			}
			if len(tree.Nodes) > maxTreeNodes {
				return nil, &LimitError{fmt.Sprintf("nodes in the round %d class %d tree", r, k), len(tree.Nodes), maxTreeNodes}
			}
			numNodes += len(tree.Nodes)
			maxNodes = max(maxNodes, len(tree.Nodes))
			numSets += setFirst
			for i := range tree.Nodes {
				n := &tree.Nodes[i]
				switch {
				case n.IsLeaf:
					numLeaves++
				case n.Kind == uint8(Numeric):
					splits[n.Feature]++
				default:
					words, err := setWords(n.Feature, tree.LeftCats(n))
					if err != nil {
						return nil, err
					}
					numSets++
					numWords += words + 1
					setWidth[n.Feature] = max(setWidth[n.Feature], words)
				}
			}
		}
	}
	edges, routed := gatherSplits(trees, splits, setWidth)
	for feat, es := range edges {
		if len(es) > maxForestEdges {
			return nil, &LimitError{fmt.Sprintf("distinct thresholds on feature %d", feat), len(es), maxForestEdges}
		}
		if len(es) > 0 && (math.IsNaN(es[0]) || math.IsInf(es[0], 0) || math.IsInf(es[len(es)-1], 0)) {
			return nil, fmt.Errorf("gbdt: compile: feature %d has a non-finite split threshold", feat)
		}
	}
	f.edges = edges
	if err := f.pickMissingIDs(routed); err != nil {
		return nil, err
	}
	f.nodes = make([]binNode, 0, numNodes)
	f.leaves = make([]float64, 0, numLeaves)
	f.sets = make([]catSet, 0, numSets)
	// arena[0] is setAll's word and arena[1] setNone's, shared by every
	// tree.
	f.arena = append(make([]uint64, 0, 2+numWords), ^uint64(0), 0)
	f.trees = make([]treeRef, 0, len(trees)*m.NumClasses)
	f.classStart = make([]int32, 0, m.NumClasses+1)

	var stack []pendingNode
	reached := make([]bool, maxNodes)
	for k := 0; k < m.NumClasses; k++ {
		f.classStart = append(f.classStart, int32(len(f.trees)))
		for _, round := range trees {
			var err error
			if stack, err = f.addTree(round[k], stack, reached); err != nil {
				return nil, err
			}
		}
	}
	f.classStart = append(f.classStart, int32(len(f.trees)))
	return f, nil
}

// gatherSplits is compile's second pass over the trees, sized by its
// first: splits[feat] numeric splits on each feature, and categorical
// sets setWidth[feat] words wide at most. It
// returns each feature's sorted distinct thresholds, the edges, cut
// from one array that holds exactly them (nil for a feature without a
// numeric split), and each categorical feature's union of left sets,
// cut from another. The thresholds are gathered by feature into one
// scratch array, each feature's in tree order, then sorted and
// compacted feature by feature: what sorting and compacting a feature's
// own list gives.
func gatherSplits(trees [][]*Tree, splits, setWidth []int) (edges [][]float64, routed [][]uint64) {
	nf := len(splits)
	edges, routed = make([][]float64, nf), make([][]uint64, nf)
	thr := make([]float64, sumInts(splits))
	at := 0
	for feat, n := range splits {
		edges[feat], at = thr[at:at:at+n], at+n
	}
	words := make([]uint64, sumInts(setWidth))
	for feat, w := range setWidth {
		routed[feat], words = words[:w:w], words[w:]
	}
	for _, round := range trees {
		for _, tree := range round {
			for i := range tree.Nodes {
				switch n := &tree.Nodes[i]; {
				case n.IsLeaf:
				case n.Kind == uint8(Numeric):
					edges[n.Feature] = append(edges[n.Feature], n.Threshold)
				default:
					setBits(routed[n.Feature], tree.LeftCats(n))
				}
			}
		}
	}
	distinct := 0
	for feat, es := range edges {
		slices.Sort(es)
		edges[feat] = slices.Compact(es)
		distinct += len(edges[feat])
	}
	slab := make([]float64, distinct)
	for feat, es := range edges {
		if len(es) > 0 {
			n := copy(slab, es)
			edges[feat], slab = slab[:n:n], slab[n:]
		} else {
			edges[feat] = nil
		}
	}
	return edges, routed
}

// sumInts returns the sum of xs.
func sumInts(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// setWords returns how many bitset words a categorical split's set
// takes.
func setWords(feature int32, ids []int32) (int, error) {
	words := 0
	for _, c := range ids {
		if c < 0 {
			return 0, fmt.Errorf("gbdt: compile: categorical split on feature %d routes negative id %d", feature, c)
		}
		if c > maxCategoryID {
			return 0, &LimitError{fmt.Sprintf("category id on feature %d", feature), int(c), maxCategoryID}
		}
		if w := int(c>>6) + 1; w > words {
			words = w
		}
	}
	return words, nil
}

// setBits sets bit c of the bitset for every id c.
func setBits(set []uint64, ids []int32) {
	for _, c := range ids {
		set[c>>6] |= 1 << uint(c&63)
	}
}

// pendingNode is a model node waiting to be laid out: src in its tree,
// depth below the root, and the laid-out parent whose right child it is
// (-1 for a left child or the root).
type pendingNode struct {
	src, depth int32
	rightOf    int
}

// addTree appends one tree in pre-order, left subtree first, whatever
// order the model stores it in: the step finds a left child by adding
// one. stack and reached (at least as long as the tree) are scratch
// handed from tree to tree.
func (f *Forest) addTree(tree *Tree, stack []pendingNode, reached []bool) ([]pendingNode, error) {
	tr := treeRef{root: int32(len(f.nodes)), sets: int32(len(f.sets)), leaves: int32(len(f.leaves))}
	f.sets = append(f.sets, catSet{zero: 0}, catSet{zero: 1})
	stack = append(stack[:0], pendingNode{src: 0, rightOf: -1})
	clear(reached[:len(tree.Nodes)])
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reached[p.src] {
			// Two parents share a child, and laying such a graph out as a
			// tree need not end.
			return stack, fmt.Errorf("gbdt: compile: tree reaches node %d twice; trees must not share children", p.src)
		}
		reached[p.src] = true
		at := len(f.nodes)
		if p.rightOf >= 0 {
			f.nodes[p.rightOf].right = uint16(at - p.rightOf)
		}
		n := &tree.Nodes[p.src]
		if n.IsLeaf {
			f.nodes = append(f.nodes, binNode{thr: uint16(len(f.leaves) - int(tr.leaves)), set: setNone})
			f.leaves = append(f.leaves, n.Value)
			tr.depth = max(tr.depth, p.depth)
			continue
		}
		bn := binNode{feat: uint16(n.Feature)}
		if n.Kind == uint8(Numeric) {
			bn.thr = uint16(sort.SearchFloat64s(f.edges[n.Feature], n.Threshold))
			bn.set = setAll
		} else {
			bn.thr = thrAlways
			bn.set = uint16(len(f.sets) - int(tr.sets))
			ids := tree.LeftCats(n)
			words, _ := setWords(n.Feature, ids) // checked by compile's size pass
			f.sets = append(f.sets, catSet{zero: uint32(len(f.arena) + words), words: uint32(words)})
			for w := 0; w <= words; w++ {
				f.arena = append(f.arena, 0)
			}
			setBits(f.arena[len(f.arena)-words-1:], ids)
		}
		f.nodes = append(f.nodes, bn)
		stack = append(stack,
			pendingNode{src: n.Right, depth: p.depth + 1, rightOf: at},
			pendingNode{src: n.Left, depth: p.depth + 1, rightOf: -1})
	}
	if laid := len(f.nodes) - int(tr.root); laid != len(tree.Nodes) {
		// The model file would lose the nodes no path reaches, and the
		// forest's edges and missing ids would still count them.
		return stack, fmt.Errorf("gbdt: compile: the tree's root reaches %d of its %d nodes", laid, len(tree.Nodes))
	}
	f.trees = append(f.trees, tr)
	return stack, nil
}

// pickMissingIDs chooses, per categorical feature, the smallest id that
// no split of the model routes left (routed holds the union of the
// feature's left sets). The float entries bin a missing (NaN), negative
// or out-of-range categorical value to it, so it goes right at every
// split, as Tree.Predict sends it.
func (f *Forest) pickMissingIDs(routed [][]uint64) error {
	for feat, union := range routed {
		id := 64 * len(union)
		for w, word := range union {
			if word != ^uint64(0) {
				id = 64*w + bits.TrailingZeros64(^word)
				break
			}
		}
		if id > maxCategoryID {
			return &LimitError{fmt.Sprintf("ids routed left on categorical feature %d, leaving none for a missing value", feat), id, maxCategoryID}
		}
		f.missing[feat] = uint16(id)
	}
	return nil
}

// binRow quantizes one float feature row into out (NumFeatures long) so
// that every split routes the bins as Tree.Predict routes the values: a
// numeric value becomes the number of thresholds below it (NaN is 0,
// missing goes left), a categorical value its truncated id, or the
// feature's missing id when it has none (NaN, negative, past uint16).
func (f *Forest) binRow(row []float64, out []uint16) {
	for feat := range out {
		v := row[feat]
		if f.kinds[feat] == Categorical {
			// Truncate before the range check, exactly like containsCat:
			// values in (-1, 0) truncate to category 0 and must probe.
			// What int32(NaN) is depends on the port, hence v != v.
			id := int32(v)
			if id < 0 || id > maxCategoryID || v != v {
				id = int32(f.missing[feat])
			}
			out[feat] = uint16(id)
			continue
		}
		// Smallest i with v <= es[i]. NaN fails every v > e, ending at 0.
		es := f.edges[feat]
		lo, hi := 0, len(es)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if v > es[mid] {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[feat] = uint16(lo)
	}
}

// lanes is the state of the eight descents that run in lockstep: lane l
// is at node at[l] of the tree whose sets start at sets[l], reading the
// row whose bins start at tile[row[l]].
type lanes struct {
	at, row, sets [8]int
}

// descend advances every lane by depth levels; a lane on a leaf stays
// there. This is the forest's one traversal. The step is integer-only
// and branch-free, so the eight independent chains overlap their load
// latency instead of waiting on mispredicted branches: the compare's
// borrow and the set's membership bit are ANDed into `left`, which
// selects between the two child offsets by mask, and an id past the
// set's last word is clamped onto the zero word behind the set.
func (f *Forest) descend(tile []uint16, ln *lanes, depth int32) {
	nodes, sets, arena := f.nodes, f.sets, f.arena
	for ; depth > 0; depth-- {
		for l := range ln.at {
			n := nodes[ln.at[l]]
			b := uint32(tile[ln.row[l]+int(n.feat)])
			s := sets[ln.sets[l]+int(n.set)]
			over := b>>6 - s.words // words past the set's last, negative inside it
			word := arena[s.zero+over&uint32(int32(over)>>31)]
			left := (b - uint32(n.thr) - 1) >> 31 & uint32(word>>(b&63))
			right := uint32(n.right)
			ln.at[l] += int(right ^ (right^1)&-left)
		}
	}
}

// batchBlock is the row-block size for batched traversal: each tree is
// walked over a full block before moving to the next tree, so the
// tree's nodes stay resident in L1 across the block while the total
// forest working set can be a megabyte. 64 rows keeps the block's
// binned rows plus one tree comfortably inside a 32 KiB L1D.
const batchBlock = 64

// addRounds adds the trees of boosting rounds [lo, hi) to the logits
// (n x NumClasses, row-major) of the n binned rows in tile
// (n x NumFeatures, row-major). Logits that start at the class init
// scores (logitsScratch) and take every round end up summed in
// Model.Logits' order, init first and then trees in round order, so
// they are bit-identical to it, never an ulp-flipped argmax.
func (f *Forest) addRounds(tile []uint16, n int, logits []float64, lo, hi int) {
	k, nf := f.NumClasses, f.NumFeatures
	for start := 0; start < n; start += batchBlock {
		end := min(start+batchBlock, n)
		f.addRoundsBlock(tile[start*nf:end*nf], end-start, logits[start*k:end*k], lo, hi)
	}
}

// addRoundsBlock is addRounds on at most batchBlock rows. It iterates
// class -> tree -> 8-row group: eight rows descend a tree in lockstep
// for its fixed depth (self-looping leaves make early exits
// unnecessary), and one class's partial sums stay in L1 scratch across
// all its trees, touching the logits buffer once per class per row.
// The rows left over after the last whole group go one by one through
// addRoundsRow: measured on the paper-scale forest that beats filling a
// group's spare lanes with copies of a row up to six rows left over,
// and ties at seven.
func (f *Forest) addRoundsBlock(tile []uint16, n int, logits []float64, lo, hi int) {
	k, nf := f.NumClasses, f.NumFeatures
	grouped := n &^ 7
	var acc [batchBlock]float64
	var ln lanes
	for kc := 0; kc < k && grouped > 0; kc++ {
		for i := 0; i < grouped; i++ {
			acc[i] = logits[i*k+kc]
		}
		first := int(f.classStart[kc])
		for _, tr := range f.trees[first+lo : first+hi] {
			leaves := f.leaves[tr.leaves:]
			for l := range ln.sets {
				ln.sets[l] = int(tr.sets)
			}
			for g := 0; g < grouped; g += 8 {
				for l := range ln.at {
					ln.at[l], ln.row[l] = int(tr.root), (g+l)*nf
				}
				f.descend(tile, &ln, tr.depth)
				for l, at := range ln.at {
					acc[g+l] += leaves[f.nodes[at].thr]
				}
			}
		}
		for i := 0; i < grouped; i++ {
			logits[i*k+kc] = acc[i]
		}
	}
	for i := grouped; i < n; i++ {
		f.addRoundsRow(tile[i*nf:(i+1)*nf], logits[i*k:(i+1)*k], lo, hi)
	}
}

// addRoundsRow is addRounds on one row, with the eight lanes on eight
// consecutive trees of a class instead of eight rows of a tree. The
// lanes run to the deepest of their trees (a shallower one sits on its
// leaf meanwhile), a class's last group parks its spare lanes on the
// class's last tree, and leaf values are added in tree order, so the
// sums are addRoundsBlock's sums.
func (f *Forest) addRoundsRow(row []uint16, logits []float64, lo, hi int) {
	var ln lanes // ln.row stays zero: every lane reads the one row
	for kc := range logits {
		sum := logits[kc]
		first := int(f.classStart[kc])
		trees := f.trees[first+lo : first+hi]
		for t := 0; t < len(trees); t += 8 {
			depth := int32(0)
			for l := range ln.at {
				tr := &trees[min(t+l, len(trees)-1)]
				ln.at[l], ln.sets[l] = int(tr.root), int(tr.sets)
				depth = max(depth, tr.depth)
			}
			f.descend(row, &ln, depth)
			for l, tr := range trees[t:min(t+8, len(trees))] {
				sum += f.leaves[int(tr.leaves)+int(f.nodes[ln.at[l]].thr)]
			}
		}
		logits[kc] = sum
	}
}

// logitsScratch returns scratch resliced to n rows of logits, every
// row at the class init scores, followed by spare float64 words (the
// float entries keep a block of bins there). It allocates when scratch
// is too short, sized to whole blocks so that batches wandering between
// sizes share one buffer.
func (f *Forest) logitsScratch(scratch []float64, n, spare int) (logits, rest []float64) {
	k := f.NumClasses
	if cap(scratch) < n*k+spare {
		blocks := (n + batchBlock - 1) / batchBlock
		scratch = make([]float64, blocks*batchBlock*k+spare)
	}
	logits = scratch[:n*k]
	for i := 0; i < n; i++ {
		copy(logits[i*k:(i+1)*k], f.initScores)
	}
	return logits, scratch[n*k : n*k+spare]
}

// argmaxRows writes each logits row's argmax into classes, reused when
// large enough.
func (f *Forest) argmaxRows(logits []float64, classes []int) []int {
	k := f.NumClasses
	n := len(logits) / k
	if cap(classes) < n {
		classes = make([]int, n)
	}
	classes = classes[:n]
	for i := range classes {
		classes[i] = argmax(logits[i*k : (i+1)*k])
	}
	return classes
}

// PredictClassBinned returns the argmax class of every row of tile,
// which holds len(tile)/NumFeatures binned rows back to back. classes
// and the logit scratch are reused when large enough; a caller that
// hands both back allocates nothing. The bins must be ones the model's
// binner produces (features.Binner.ValidateBins); others are routed
// somewhere, never out of bounds.
func (f *Forest) PredictClassBinned(tile []uint16, classes []int, scratch []float64) ([]int, []float64) {
	n := len(tile) / f.NumFeatures
	scratch, _ = f.logitsScratch(scratch, n, 0)
	f.addRounds(tile, n, scratch, 0, f.rounds())
	return f.argmaxRows(scratch, classes), scratch
}

// rounds returns the number of boosting rounds compiled.
func (f *Forest) rounds() int { return len(f.trees) / f.NumClasses }

// Logits computes raw class scores for one row into out (allocated when
// nil or too short). Bit-identical to Model.Logits on the source model.
func (f *Forest) Logits(row []float64, out []float64) []float64 {
	if cap(out) < f.NumClasses {
		out = make([]float64, f.NumClasses)
	}
	out = out[:f.NumClasses]
	copy(out, f.initScores)
	var buf [64]uint16
	bins := buf[:]
	if f.NumFeatures > len(buf) {
		bins = make([]uint16, f.NumFeatures)
	}
	bins = bins[:f.NumFeatures]
	f.binRow(row, bins)
	f.addRoundsRow(bins, out, 0, f.rounds())
	return out
}

// PredictProba returns softmax class probabilities for one row in out
// (allocated when nil or too short): the softmax of Logits. Panics if
// the model is a regressor.
func (f *Forest) PredictProba(row []float64, out []float64) []float64 {
	if f.NumClasses < 2 {
		panic("gbdt: PredictProba on a regression model")
	}
	out = f.Logits(row, out)
	softmax(out, out)
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

// PredictClassBatch returns the argmax class per row, reusing classes
// and the scratch buffer when provided. The returned scratch holds the
// per-row logits laid out row-major (len(rows) x NumClasses), and its
// spare capacity one block's binned rows: a caller that hands it back
// on its next call allocates nothing, whatever the row count does below
// the next block boundary.
func (f *Forest) PredictClassBatch(rows [][]float64, classes []int, scratch []float64) ([]int, []float64) {
	n := len(rows)
	k, nf := f.NumClasses, f.NumFeatures
	// The block's bins live in the caller's float64 scratch, four to a
	// word, viewed as the []uint16 the traversal reads.
	scratch, words := f.logitsScratch(scratch, n, (batchBlock*nf+3)/4)
	tile := unsafe.Slice((*uint16)(unsafe.Pointer(unsafe.SliceData(words))), 4*len(words))
	for start := 0; start < n; start += batchBlock {
		end := min(start+batchBlock, n)
		for i, row := range rows[start:end] {
			f.binRow(row, tile[i*nf:(i+1)*nf])
		}
		f.addRoundsBlock(tile, end-start, scratch[start*k:end*k], 0, f.rounds())
	}
	return f.argmaxRows(scratch, classes), scratch
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

// ResidentBytes returns the bytes the forest holds on the heap, counted
// from the lengths of its arrays.
func (f *Forest) ResidentBytes() int {
	n := int(unsafe.Sizeof(*f)) +
		int(unsafe.Sizeof(binNode{}))*len(f.nodes) + 8*len(f.leaves) +
		int(unsafe.Sizeof(catSet{}))*len(f.sets) + 8*len(f.arena) +
		int(unsafe.Sizeof(treeRef{}))*len(f.trees) + 4*len(f.classStart) +
		8*len(f.initScores) + int(unsafe.Sizeof(Numeric))*len(f.kinds) + 2*len(f.missing)
	for _, es := range f.edges {
		n += int(unsafe.Sizeof(es)) + 8*len(es)
	}
	return n
}

// NumTrees returns the number of trees compiled: rounds times classes.
func (f *Forest) NumTrees() int { return len(f.trees) }

// NumLeaves returns the number of leaves of all trees.
func (f *Forest) NumLeaves() int { return len(f.leaves) }

// walk returns the leaf value tree tr reaches on a raw float row, found
// without binning it: a numeric split compares the value with its
// threshold, NaN going left, and a categorical split looks the value up
// in its set as Tree.Predict looks it up in its ids. This is
// Model.Logits' reference walk; no entry of the forest runs it.
func (f *Forest) walk(tr treeRef, row []float64) float64 {
	at := int(tr.root)
	for {
		n := f.nodes[at]
		var left bool
		switch v := row[n.feat]; n.set {
		case setNone:
			return f.leaves[int(tr.leaves)+int(n.thr)]
		case setAll:
			left = v != v || v <= f.edges[n.feat][n.thr]
		default:
			left = f.has(f.sets[int(tr.sets)+int(n.set)], v)
		}
		if left {
			at++
		} else {
			at += int(n.right)
		}
	}
}

// has reports whether set s holds category value v: v is not NaN, and
// its truncated id is not negative and has its bit set.
func (f *Forest) has(s catSet, v float64) bool {
	id := int32(v)
	if v != v || id < 0 || uint32(id)>>6 >= s.words {
		return false
	}
	return f.arena[s.zero-s.words+uint32(id)>>6]>>(id&63)&1 != 0
}

// ids returns the ids of set s, ascending.
func (f *Forest) ids(s catSet) []int32 {
	var ids []int32
	for w, word := range f.arena[s.zero-s.words : s.zero] {
		for ; word != 0; word &= word - 1 {
			ids = append(ids, int32(64*w+bits.TrailingZeros64(word)))
		}
	}
	return ids
}
