package gbdt

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
)

// This file implements the histogram-subtraction training engine behind
// TrainClassifier and TrainRegressor. Design, relative to the legacy
// per-node-rebuild grower (the naive reference in naive_test.go):
//
//   - Trees grow depth-first over one reusable row-index arena with an
//     explicit stack; partitioning is in-place and stable, so a node's
//     rows are always one contiguous segment and no per-node []int32 or
//     categorical map is ever allocated.
//   - Per-node histograms live in flat per-column regions of pooled
//     buffers. A split builds the histogram of only one child from its
//     rows; the sibling's histogram is derived as parent minus child,
//     halving (or better) the histogram work per level.
//   - A classifier round starts with one row pass (classRound.run) over
//     contiguous row ranges: per row it adds last round's leaf values to
//     the row-major logits, runs the softmax, keeps the log-loss term and
//     writes every class's gradient pair. Gradients and leaf values are
//     class-major, gh[k][2n] and leafOut[k][n], so a class's tree reads
//     and writes only its own columns.
//   - Every row knows its leaf when the leaf is made: a node owns one
//     segment of the in-sample arena and one of the out-of-sample arena
//     (Subsample < 1), and partition routes both by the split's bins, so
//     no row walks a tree after it is grown.
//   - Only features that can split get engine columns: a feature whose
//     training rows all fall in one bin (a constant, a constant apart
//     from NaNs, a categorical with one observed id) never passes a
//     scan, so it gets no histogram region, no matrix entries and no
//     kernel adds. Columns keep schema order, and a split names the
//     column's schema feature, so dropping them cannot move a split.
//   - Work parallelizes along two axes behind Config.Workers: class
//     trees within a boosting round, each class worker taking the next
//     untaken class so uneven trees do not idle a worker, and column
//     histogram/scan chunks within a node. Binning spreads the features
//     over the same workers.
//   - A training allocates per training, not per round, tree or node:
//     a crew of goroutines started once runs every round's row pass and
//     class trees, a grower's scratch is sized for the configured depth,
//     the trees come from one array, and each tree's nodes and category
//     ids are cut from its grower's chunk slabs with their capacity
//     clipped, so a tree grown later can never write into a neighbour.
//   - A grower reads its class's gradients as one interleaved array, row
//     r's (gradient, hessian) pair at gh[2r], gh[2r+1], and every
//     histogram fill is one kernel over the row-major binned matrix: per
//     row of the segment it loads the pair once and, for each column of
//     the chunk's window, adds it to the bin's (gradient, hessian) with
//     one packed add and 1 to its count. On amd64 the kernel is SSE2
//     (accum_amd64.s) for the uint16 matrix; the Go kernel, accumRowsGo,
//     is the uint32 matrix's, every other architecture's, and the
//     reference FuzzAccumRows holds the SSE2 one to bit for bit. Each
//     packed lane is the same IEEE add, in the same row order, as the Go
//     kernel's, so on amd64 the kernel choice cannot change a model byte.
//
// Determinism: the same dataset, labels and Config (including Seed)
// produce a bit-identical Model at any Workers value. Every parallel
// reduction has a fixed order — per-column histograms accumulate rows
// sequentially in arena order, split candidates reduce in feature-index
// order with strict-greater comparisons (ties keep the lowest feature,
// then the lowest bin / shortest category prefix), and the round-loss
// reduction sums fixed-size row chunks in chunk order, independent of
// how many goroutines computed them.

// lossChunk is the fixed row-chunk granularity of the round pass's loss.
// It must not depend on the worker count: partial sums are reduced in
// chunk order, so fixed chunk boundaries keep the reduction
// bit-identical at any Workers value. A training of at most lossChunk
// rows runs its round pass on the caller.
const lossChunk = 4096

// parallelNodeMinRows gates per-node feature parallelism: below this
// segment size the goroutine fan-out costs more than the scan.
const parallelNodeMinRows = 2048

// histEngine holds the immutable per-training-run state shared by all
// tree growers: the binned dataset and the resolved parallelism plan.
type histEngine struct {
	bins   *binning
	schema *Schema
	cfg    Config

	// cols lists the engine's columns in schema order: the features whose
	// training rows fall in at least two bins, the only ones a scan can
	// split (a numeric scan's left side jumps from no rows to all of
	// them, a categorical scan sees one category). Everything below is
	// indexed by column; splitResult.feature, partition and
	// thresholdForBin take the schema index cols[c].
	cols      []int
	featOff   []int32 // flat-histogram offset of each column's bin region
	totalBins int
	maxBins   int // widest single column, sizes categorical scratch

	// binnedRM16/binnedRM32 is the row-major binned matrix of the columns
	// with featOff pre-added and the histogram record stride
	// pre-multiplied: entry r*len(cols)+c is 3*(featOff[c]+bin), indexing
	// the flat histogram directly, and below 3*totalBins-2 (buildRowMajor
	// asserts it), so every record it names lies inside a histBuf.
	// Histogram builds stream it row-wise over the chunk's column window,
	// loading each row's gradient pair once for the window instead of
	// once per column. The 16-bit form halves the streamed bytes, covers
	// schemas up to ~21k total bins and has the SSE2 kernel; wider
	// schemas fall back to 32-bit and the Go kernel (exactly one of the
	// two is non-nil).
	binnedRM16 []uint16
	binnedRM32 []uint32

	workers      int      // total goroutine budget
	classWorkers int      // concurrent class trees per round
	featChunks   [][2]int // contiguous column ranges scanned concurrently; none without columns
}

// workers resolves Config.Workers: 0 means GOMAXPROCS.
func (c *Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func newHistEngine(ds *Dataset, bins *binning, cfg Config, numClasses int) *histEngine {
	eng := &histEngine{
		bins:   bins,
		schema: ds.Schema,
		cfg:    cfg,
		cols:   make([]int, 0, len(bins.binned)),
	}
	for f, col := range bins.binned {
		if slices.ContainsFunc(col, func(b int32) bool { return b != col[0] }) {
			eng.cols = append(eng.cols, f)
		}
	}
	nc := len(eng.cols)
	eng.featOff = make([]int32, nc)
	for c, f := range eng.cols {
		eng.featOff[c] = int32(eng.totalBins)
		eng.totalBins += bins.numBins[f]
		eng.maxBins = max(eng.maxBins, bins.numBins[f])
	}
	if 3*eng.totalBins <= math.MaxUint16 {
		eng.binnedRM16 = buildRowMajor[uint16](bins, eng.cols, eng.featOff, ds.N)
	} else {
		eng.binnedRM32 = buildRowMajor[uint32](bins, eng.cols, eng.featOff, ds.N)
	}
	eng.workers = cfg.workers()
	eng.classWorkers = min(eng.workers, numClasses)
	featWorkers := max(min(eng.workers/eng.classWorkers, nc), 1)
	// Contiguous column chunks balanced by bin count (bin count tracks
	// both the zeroing and the scan cost of a chunk). Chunk boundaries
	// only group an order-preserving reduction, so they may depend on
	// the worker count without breaking determinism.
	per := (eng.totalBins + featWorkers - 1) / featWorkers
	eng.featChunks = make([][2]int, 0, featWorkers)
	start, acc := 0, 0
	for c, f := range eng.cols {
		acc += bins.numBins[f]
		if acc >= per || c == nc-1 {
			eng.featChunks = append(eng.featChunks, [2]int{start, c + 1})
			start, acc = c+1, 0
		}
	}
	return eng
}

// buildRowMajor lays the binned columns out row-major with featOff and
// the histogram record stride baked in. It panics on a bin outside its
// feature's range: the SSE2 kernel indexes histograms by these entries
// unchecked, so this is where they are held in range.
func buildRowMajor[T uint16 | uint32](bins *binning, cols []int, featOff []int32, n int) []T {
	nc := len(cols)
	rm := make([]T, n*nc)
	for c, f := range cols {
		off := featOff[c]
		for r, b := range bins.binned[f] {
			if b < 0 || int(b) >= bins.numBins[f] {
				panic(fmt.Sprintf("gbdt: row %d feature %d bin %d outside [0, %d)", r, f, b, bins.numBins[f]))
			}
			rm[r*nc+c] = T(3 * (off + b))
		}
	}
	return rm
}

// accumRows adds the segment's rows to histogram d: for each row r of
// seg, in order, and each entry b of its feature window
// rm[r*nf+lo : r*nf+hi], d[b] += gh[2r], d[b+1] += gh[2r+1] and
// d[b+2]++. It checks the window and the row ids and then runs
// accumRows16, the SSE2 kernel on amd64, which indexes unchecked; every
// entry must name a record inside d, which buildRowMajor asserts of the
// engine's matrix.
func accumRows(d []float64, rm []uint16, nf, lo, hi int, seg []int32, gh []float64) {
	if lo < 0 || lo > hi || hi > nf {
		panic(fmt.Sprintf("gbdt: feature window [%d, %d) outside [0, %d)", lo, hi, nf))
	}
	if lo == hi || len(seg) == 0 {
		return
	}
	var maxRow uint32 // a negative id compares as huge
	for _, r := range seg {
		maxRow = max(maxRow, uint32(r))
	}
	if r := int(maxRow); r*nf+hi > len(rm) || 2*r+1 >= len(gh) {
		panic(fmt.Sprintf("gbdt: row %d outside the %d-row matrix or the %d-row gradients", r, len(rm)/nf, len(gh)/2))
	}
	accumRows16(d, rm, nf, lo, hi, seg, gh)
}

// accumRowsGo is accumRows in Go, bounds-checked: the uint32 matrix's
// kernel, accumRows16 off amd64, and the reference FuzzAccumRows holds
// the SSE2 kernel to.
func accumRowsGo[T uint16 | uint32](d []float64, rm []T, nf, lo, hi int, seg []int32, gh []float64) {
	for _, r := range seg {
		g, h := gh[2*int(r)], gh[2*int(r)+1]
		for _, b := range rm[int(r)*nf+lo : int(r)*nf+hi] {
			i := int(b)
			d[i] += g
			d[i+1] += h
			d[i+2]++
		}
	}
}

// crew is a training's worker goroutines, started once per training
// and stopped when it ends. A round hands them its parallel steps (the
// row pass's ranges, the class trees) over channels instead of starting
// goroutines, so a round allocates nothing as long as run's fn is a
// func value made once per training: a closure made per call would go
// to the heap on every call.
type crew struct {
	fn   func(w int)
	wake []chan struct{}
	wg   sync.WaitGroup
}

// newCrew starts workers-1 goroutines; the caller of run is worker 0.
func newCrew(workers int) *crew {
	c := &crew{wake: make([]chan struct{}, workers-1)}
	for i := range c.wake {
		c.wake[i] = make(chan struct{})
		go c.loop(i)
	}
	return c
}

func (c *crew) loop(i int) {
	defer c.wg.Done() // stop's count
	for range c.wake[i] {
		c.fn(i + 1)
		c.wg.Done()
	}
}

// run calls fn(w) for every worker w, fn(0) on the caller, and returns
// once every call has.
func (c *crew) run(fn func(w int)) {
	c.fn = fn
	c.wg.Add(len(c.wake))
	for _, ch := range c.wake {
		ch <- struct{}{}
	}
	fn(0)
	c.wg.Wait()
}

// stop ends the crew's goroutines and returns once they have exited.
func (c *crew) stop() {
	c.wg.Add(len(c.wake))
	for _, ch := range c.wake {
		close(ch)
	}
	c.wg.Wait()
}

// histBuf is one pooled flat histogram: per-feature bin regions laid
// out back to back, each bin an interleaved (gradient, hessian, count)
// triple at d[3b : 3b+3] so one accumulation touches one cache line.
// Counts are stored as float64 (exact for any realistic row count),
// which keeps the record homogeneous and the subtraction pass a single
// loop.
type histBuf struct {
	d []float64
}

// nodeTask is one pending node on the growth stack.
type nodeTask struct {
	parent     int32 // node index of the parent in the tree under construction; -1 for the root
	isLeft     bool
	start, end int32 // row segment in the grower's arena
	ostart     int32 // out-of-sample segment [ostart, oend)
	oend       int32
	depth      int32
	sumG, sumH float64
	hb         *histBuf // histogram if already derived; nil = build on demand
}

// histCatStat is the per-category accumulator of the categorical scan
// (n is a float64 count, matching the histogram record); key is its
// sort key g/(h+1), computed once per scan.
type histCatStat struct {
	id           int32
	g, h, n, key float64
}

// treeGrower is the per-worker mutable state for growing one tree at a
// time. A grower is reused across rounds and classes; nothing escapes
// except the finished tree's Nodes and cats, which it cuts from its
// slabs.
type treeGrower struct {
	eng *histEngine

	arena   []int32 // sampled row ids, partitioned in place; a node owns [start,end)
	out     []int32 // out-of-sample row ids, likewise; a node owns [ostart,oend)
	scratch []int32 // right-half staging for stable partition
	// gh and leafOut are the columns of the class being grown, which the
	// trainer owns and points them at before grow: gh holds row r's
	// (gradient, hessian) pair at gh[2r], gh[2r+1], the pair the kernel
	// adds with one packed add; grow writes leafOut[r], row r's leaf
	// value, for every in-sample and out-of-sample row.
	gh      []float64
	leafOut []float64

	// nodes and cats are the tree under construction, reused from tree
	// to tree; grow hands the finished tree copies cut from nodeSlab and
	// catSlab, chunks that double up to slabChunk elements.
	nodes    []Node
	cats     []int32
	nodeSlab []Node
	catSlab  []int32

	catMask  []uint64        // category membership bitset during partition
	chunkCat [][]histCatStat // per-chunk categorical scan scratch
	// chunkLeft[ci] holds the left ids (unsorted) of chunk ci's categorical
	// candidate; cands[ci].leftCats aliases it, and grow copies the ids
	// into cats once, for the split it keeps.
	chunkLeft [][]int32
	cands     []splitResult // per-chunk split candidates
	free      []*histBuf
	stack     []nodeTask
	// cur is the node being split. It lives here, not in grow's frame,
	// because the chunk workers read it from other goroutines: a local
	// would be moved to the heap once per node.
	cur nodeTask
}

// growerDepth bounds the depth newTreeGrower sizes a grower's scratch
// for: a deeper tree grows its scratch as it needs.
const growerDepth = 10

// newTreeGrower sizes the grower's scratch for a tree of the engine's
// depth, up to growerDepth, so no tree grows it: a tree of depth D has
// at most 2^(D+1)-1 nodes, its stack at most D+2 tasks, and at most D+2
// histograms live at once (one per pending right sibling, the current
// node's and the child built beside it). Rows, histograms and
// categorical scratch each come from one array; an engine without
// columns gets no histograms.
func newTreeGrower(eng *histEngine, numRows int) *treeGrower {
	depth := min(eng.cfg.MaxDepth, growerDepth)
	rows := make([]int32, 3*numRows)
	nc, mb := len(eng.featChunks), eng.maxBins
	tg := &treeGrower{
		eng:       eng,
		arena:     rows[:0:numRows],
		out:       rows[numRows : numRows : 2*numRows],
		scratch:   rows[2*numRows:],
		nodes:     make([]Node, 0, 1<<(depth+1)-1),
		cats:      make([]int32, 0, mb),
		catMask:   make([]uint64, (mb+63)/64),
		chunkCat:  make([][]histCatStat, nc),
		chunkLeft: make([][]int32, nc),
		cands:     make([]splitResult, nc),
		stack:     make([]nodeTask, 0, depth+2),
	}
	stats, left := make([]histCatStat, nc*mb), make([]int32, nc*mb)
	for ci := range nc {
		tg.chunkCat[ci], tg.chunkLeft[ci] = stats[ci*mb:ci*mb:(ci+1)*mb], left[ci*mb:ci*mb:(ci+1)*mb]
	}
	if nc == 0 { // no column can split: no node takes a histogram
		return tg
	}
	hbs, size := make([]histBuf, depth+2), 3*eng.totalBins
	d := make([]float64, len(hbs)*size)
	tg.free = make([]*histBuf, len(hbs))
	for i := range hbs {
		hbs[i].d = d[i*size : (i+1)*size : (i+1)*size]
		tg.free[i] = &hbs[i]
	}
	return tg
}

func (tg *treeGrower) take() *histBuf {
	if n := len(tg.free); n > 0 {
		hb := tg.free[n-1]
		tg.free = tg.free[:n-1]
		return hb
	}
	return &histBuf{d: make([]float64, 3*tg.eng.totalBins)}
}

func (tg *treeGrower) release(hb *histBuf) {
	if hb != nil {
		tg.free = append(tg.free, hb)
	}
}

// chunkOp names the work runChunks does on each feature chunk. The ops
// are values, not closures: a closure handed to a function that may
// start goroutines is heap-allocated on every call, taken or not.
type chunkOp uint8

const (
	opFill     chunkOp = iota // rebuild hb's chunk from the rows in seg
	opFillScan                // opFill, then opScan
	opScan                    // scan hb's chunk for the best split of tg.cur
	opSub                     // hb's chunk -= other's
)

// runChunks executes op for every feature chunk, concurrently when the
// engine has a per-node feature budget and the segment is big enough to
// pay for the fan-out. Chunks touch disjoint histogram regions and
// reduce in chunk order afterwards, so both paths are bit-identical.
func (tg *treeGrower) runChunks(segLen int32, op chunkOp, hb, other *histBuf, seg []int32) {
	chunks := tg.eng.featChunks
	if len(chunks) == 1 || int(segLen) < parallelNodeMinRows {
		for ci := range chunks {
			tg.runChunk(op, hb, other, seg, ci)
		}
		return
	}
	var wg sync.WaitGroup
	for ci := range chunks {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			tg.runChunk(op, hb, other, seg, ci)
		}(ci)
	}
	wg.Wait()
}

func (tg *treeGrower) runChunk(op chunkOp, hb, other *histBuf, seg []int32, ci int) {
	switch op {
	case opFill:
		tg.fillChunk(hb, seg, ci)
	case opFillScan:
		tg.fillChunk(hb, seg, ci)
		tg.scanChunk(hb, &tg.cur, ci)
	case opScan:
		tg.scanChunk(hb, &tg.cur, ci)
	case opSub:
		tg.subChunk(hb, other, ci)
	}
}

// chunkRecords returns the span of a histBuf's d that chunk ci's
// columns own.
func (eng *histEngine) chunkRecords(ci int) (lo, hi int32) {
	lo = 3 * eng.featOff[eng.featChunks[ci][0]]
	hi = 3 * int32(eng.totalBins)
	if end := eng.featChunks[ci][1]; end < len(eng.cols) {
		hi = 3 * eng.featOff[end]
	}
	return lo, hi
}

// fillChunk zeroes and rebuilds the chunk's per-column histograms from
// the segment's rows with the row-major kernel over the chunk's column
// window. Every bin adds its rows in segment order whatever the window,
// so the chunking cannot change a sum.
func (tg *treeGrower) fillChunk(hb *histBuf, seg []int32, ci int) {
	eng := tg.eng
	lo, hi := eng.chunkRecords(ci)
	clear(hb.d[lo:hi])
	clo, chi := eng.featChunks[ci][0], eng.featChunks[ci][1]
	if eng.binnedRM16 != nil {
		accumRows(hb.d, eng.binnedRM16, len(eng.cols), clo, chi, seg, tg.gh)
	} else {
		accumRowsGo(hb.d, eng.binnedRM32, len(eng.cols), clo, chi, seg, tg.gh)
	}
}

// subChunk derives the sibling histogram in place: parent -= child.
func (tg *treeGrower) subChunk(parent, child *histBuf, ci int) {
	lo, hi := tg.eng.chunkRecords(ci)
	pd, cd := parent.d[lo:hi], child.d[lo:hi]
	for i := range pd {
		pd[i] -= cd[i]
	}
}

// scanChunk finds the chunk's best split of the node (first feature
// wins ties within the chunk; the caller reduces chunks in order).
func (tg *treeGrower) scanChunk(hb *histBuf, task *nodeTask, ci int) {
	eng := tg.eng
	cand := splitResult{}
	nTotal := task.end - task.start
	parentScore := task.sumG * task.sumG / (task.sumH + eng.cfg.Lambda)
	lo, hi := eng.featChunks[ci][0], eng.featChunks[ci][1]
	for c := lo; c < hi; c++ {
		f := eng.cols[c]
		nb, off := eng.bins.numBins[f], eng.featOff[c]
		if eng.schema.Kinds[f] == Numeric {
			tg.scanNumericFlat(f, off, nb, hb, task.sumG, task.sumH, nTotal, parentScore, &cand)
		} else {
			tg.scanCategoricalFlat(f, off, nb, hb, task.sumG, task.sumH, nTotal, parentScore, ci, &cand)
		}
	}
	tg.cands[ci] = cand
}

// splitQualifies is the engine's split acceptance rule: Gamma is the
// minimum gain required to split at all; candidates then compete by
// strict-greater gain.
func (tg *treeGrower) splitQualifies(gain float64) bool {
	return gain > tg.eng.cfg.Gamma && gain > 1e-12
}

func (tg *treeGrower) scanNumericFlat(f int, off int32, nb int, hb *histBuf,
	sumG, sumH float64, nTotal int32, parentScore float64, cand *splitResult) {
	eng := tg.eng
	minLeaf := float64(eng.cfg.MinSamplesLeaf)
	total := float64(nTotal)
	d := hb.d[3*off : 3*(off+int32(nb))]
	var gl, hl, nl float64
	bestGain, bestBin := 0.0, -1
	var bestGL, bestHL float64
	for b := 0; b < nb-1; b++ {
		gl += d[3*b]
		hl += d[3*b+1]
		nl += d[3*b+2]
		if nl < minLeaf {
			continue
		}
		if total-nl < minLeaf {
			break
		}
		gain := splitGain(gl, hl, sumG-gl, sumH-hl, parentScore, eng.cfg.Lambda)
		if gain > bestGain && tg.splitQualifies(gain) {
			bestGain, bestBin = gain, b
			bestGL, bestHL = gl, hl
		}
	}
	if bestBin >= 0 && bestGain > cand.gain {
		*cand = splitResult{feature: f, kind: Numeric, bin: bestBin, gain: bestGain, found: true, gl: bestGL, hl: bestHL}
	}
}

func (tg *treeGrower) scanCategoricalFlat(f int, off int32, nb int, hb *histBuf,
	sumG, sumH float64, nTotal int32, parentScore float64, ci int, cand *splitResult) {
	eng := tg.eng
	cats := tg.chunkCat[ci][:0]
	d := hb.d[3*off : 3*(off+int32(nb))]
	for b := int32(0); b < int32(nb); b++ {
		if d[3*b+2] == 0 {
			continue
		}
		g, h := d[3*b], d[3*b+1]
		cats = append(cats, histCatStat{id: b, n: d[3*b+2], g: g, h: h, key: g / (h + 1)})
	}
	tg.chunkCat[ci] = cats
	if len(cats) < 2 {
		return
	}
	// Gradient-ordered prefix scan (the LightGBM many-valued trick);
	// the id tiebreak makes the order total, hence deterministic.
	sortCatStats(cats)
	minLeaf := float64(eng.cfg.MinSamplesLeaf)
	total := float64(nTotal)
	var gl, hl, nl float64
	bestGain, bestPrefix := 0.0, -1
	var bestGL, bestHL float64
	for p := 0; p < len(cats)-1; p++ {
		gl += cats[p].g
		hl += cats[p].h
		nl += cats[p].n
		if nl < minLeaf || total-nl < minLeaf {
			continue
		}
		gain := splitGain(gl, hl, sumG-gl, sumH-hl, parentScore, eng.cfg.Lambda)
		if gain > bestGain && tg.splitQualifies(gain) {
			bestGain, bestPrefix = gain, p
			bestGL, bestHL = gl, hl
		}
	}
	if bestPrefix < 0 || bestGain <= cand.gain {
		return
	}
	// Candidates come and go; only the split grow keeps gets its own
	// sorted LeftCats. Until then the ids wait in the chunk's scratch.
	left := tg.chunkLeft[ci][:0]
	for p := 0; p <= bestPrefix; p++ {
		left = append(left, cats[p].id)
	}
	tg.chunkLeft[ci] = left
	*cand = splitResult{feature: f, kind: Categorical, leftCats: left, gain: bestGain, found: true, gl: bestGL, hl: bestHL}
}

// sortCatStats orders category stats by gradient ratio (key), then id —
// a total order, hence a unique deterministic result. slices.SortFunc
// is allocation-free (unlike sort.Slice's closure adapter), which
// matters at one sort per categorical feature per node.
func sortCatStats(cats []histCatStat) {
	slices.SortFunc(cats, func(a, b histCatStat) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		default:
			return int(a.id - b.id)
		}
	})
}

// findSplit ensures the current node (tg.cur) has a histogram and
// returns the best split across all features (chunk candidates reduced
// in feature order). A categorical result's leftCats is scratch.
func (tg *treeGrower) findSplit() splitResult {
	if len(tg.cands) == 0 { // no column can split
		return splitResult{}
	}
	task := &tg.cur
	if task.hb == nil {
		task.hb = tg.take()
		tg.runChunks(task.end-task.start, opFillScan, task.hb, nil, tg.arena[task.start:task.end])
	} else {
		tg.runChunks(task.end-task.start, opScan, task.hb, nil, nil)
	}
	best := tg.cands[0]
	for _, c := range tg.cands[1:] {
		if c.found && c.gain > best.gain {
			best = c
		}
	}
	return best
}

// partition stably splits the task's in-sample and out-of-sample
// segments by the chosen split (left rows keep their relative order,
// then right rows) and returns both split points. Child gradient sums
// come from the scan's prefix accumulation (splitResult.gl/hl), so this
// is pure routing: no gradient gathers.
func (tg *treeGrower) partition(task *nodeTask, s splitResult) (mid, omid int32) {
	if s.kind == Categorical {
		for _, c := range s.leftCats {
			tg.catMask[c>>6] |= 1 << uint(c&63)
		}
	}
	mid = task.start + tg.split(tg.arena[task.start:task.end], s)
	omid = task.ostart + tg.split(tg.out[task.ostart:task.oend], s)
	if s.kind == Categorical {
		for _, c := range s.leftCats {
			tg.catMask[c>>6] = 0
		}
	}
	return mid, omid
}

// split moves seg's left rows, in order, ahead of its right rows, in
// order, and returns how many go left; a categorical split's left set
// is in catMask. It is branch-free: each row is written to both halves
// and only the cursor of its side advances, because which side a row
// goes is as good as random to a branch predictor.
func (tg *treeGrower) split(seg []int32, s splitResult) int32 {
	binned := tg.eng.bins.binned[s.feature]
	scratch := tg.scratch
	l, rc := int32(0), int32(0)
	if s.kind == Numeric {
		bin := int32(s.bin)
		for _, r := range seg {
			left := b2i(binned[r] <= bin)
			seg[l] = r
			scratch[rc] = r
			l += left
			rc += 1 - left
		}
	} else {
		for _, r := range seg {
			b := binned[r]
			left := int32(tg.catMask[b>>6] >> (uint(b) & 63) & 1)
			seg[l] = r
			scratch[rc] = r
			l += left
			rc += 1 - left
		}
	}
	copy(seg[l:], scratch[:rc])
	return l
}

// b2i is 1 for true and 0 for false; the compiler makes it a SETcc.
func b2i(b bool) int32 {
	var i int32
	if b {
		i = 1
	}
	return i
}

// grow fits one regression tree to the gradient pairs in tg.gh over the
// sampled rows, into t. Leaf values (already learning-rate scaled) are
// recorded into leafOut, as leaves are created, for every sampled row
// and every row of out, which the splits route without reading their
// pairs.
func (tg *treeGrower) grow(sample, out []int32, t *Tree) {
	eng := tg.eng
	tg.arena = append(tg.arena[:0], sample...)
	tg.out = append(tg.out[:0], out...)
	nodes, cats := tg.nodes[:0], tg.cats[:0]
	minLeaf := int32(eng.cfg.MinSamplesLeaf)
	maxDepth := int32(eng.cfg.MaxDepth)

	var rootG, rootH float64
	for _, r := range sample {
		rootG += tg.gh[2*r]
		rootH += tg.gh[2*r+1]
	}
	tg.stack = append(tg.stack[:0], nodeTask{
		parent: -1, end: int32(len(sample)), oend: int32(len(out)), sumG: rootG, sumH: rootH,
	})

	for len(tg.stack) > 0 {
		tg.cur = tg.stack[len(tg.stack)-1]
		tg.stack = tg.stack[:len(tg.stack)-1]
		task := &tg.cur
		idx := int32(len(nodes))
		nodes = append(nodes, Node{IsLeaf: true})
		if task.parent >= 0 {
			if task.isLeft {
				nodes[task.parent].Left = idx
			} else {
				nodes[task.parent].Right = idx
			}
		}
		segLen := task.end - task.start

		makeLeaf := func() {
			value := -task.sumG / (task.sumH + eng.cfg.Lambda) * eng.cfg.LearningRate
			nodes[idx].Value = value
			for _, r := range tg.arena[task.start:task.end] {
				tg.leafOut[r] = value
			}
			for _, r := range tg.out[task.ostart:task.oend] {
				tg.leafOut[r] = value
			}
			tg.release(task.hb)
		}

		if task.depth >= maxDepth || segLen < 2*minLeaf {
			makeLeaf()
			continue
		}
		best := tg.findSplit()
		if !best.found {
			makeLeaf()
			continue
		}
		mid, omid := tg.partition(task, best)
		lsG, lsH := best.gl, best.hl
		rsG, rsH := task.sumG-lsG, task.sumH-lsH
		leftLen, rightLen := mid-task.start, task.end-mid
		if leftLen < minLeaf || rightLen < minLeaf {
			// The scans enforce per-side counts, so this is unreachable;
			// kept as a guard against histogram/partition divergence.
			makeLeaf()
			continue
		}

		nodes[idx] = Node{
			Feature: int32(best.feature),
			Kind:    uint8(best.kind),
		}
		if best.kind == Numeric {
			nodes[idx].Threshold = thresholdForBin(eng.bins, best.feature, best.bin)
		} else {
			building := Tree{Nodes: nodes, cats: cats}
			building.SetLeftCats(int(idx), best.leftCats)
			cats = building.cats
			slices.Sort(cats[nodes[idx].catLo:])
		}

		childDepth := task.depth + 1
		leftLeaf := childDepth >= maxDepth || leftLen < 2*minLeaf
		rightLeaf := childDepth >= maxDepth || rightLen < 2*minLeaf
		var lhb, rhb *histBuf
		if !leftLeaf || !rightLeaf {
			lhb, rhb = tg.childHists(task, mid, leftLeaf, rightLeaf)
		} else {
			tg.release(task.hb)
		}

		// Push right first so the left child is processed next: node
		// layout stays pre-order (parent, left subtree, right subtree),
		// which the model file keeps and the forest's layout repeats.
		tg.stack = append(tg.stack,
			nodeTask{parent: idx, isLeft: false, start: mid, end: task.end, ostart: omid, oend: task.oend,
				depth: childDepth, sumG: rsG, sumH: rsH, hb: rhb},
			nodeTask{parent: idx, isLeft: true, start: task.start, end: mid, ostart: task.ostart, oend: omid,
				depth: childDepth, sumG: lsG, sumH: lsH, hb: lhb},
		)
	}
	tg.nodes, tg.cats = nodes, cats
	t.Nodes, t.cats = cut(&tg.nodeSlab, nodes), cut(&tg.catSlab, cats)
}

// slabChunk caps the chunks a grower cuts finished trees from: a chunk
// doubles from 256 elements up to it, so a small model's trees share a
// few chunks and a paper-scale one's a dozen.
const slabChunk = 8192

// cut copies src to the free end of *slab, starting a chunk when the
// slab's has no room, and returns the copy with its capacity clipped to
// its length: an append to one tree's copy reallocates it, and never
// writes into its slab neighbour's.
func cut[T any](slab *[]T, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	s := *slab
	if cap(s)-len(s) < len(src) {
		s = make([]T, 0, max(len(src), min(2*cap(s), slabChunk), 256))
	}
	at := len(s)
	s = append(s, src...)
	*slab = s
	return s[at:len(s):len(s)]
}

// childHists produces the child histograms a split needs, building the
// cheaper side from rows and deriving the other by subtracting it from
// the parent histogram (which is consumed). The choice depends only on
// segment sizes, never on the worker count.
func (tg *treeGrower) childHists(task *nodeTask, mid int32, leftLeaf, rightLeaf bool) (lhb, rhb *histBuf) {
	leftSeg := tg.arena[task.start:mid]
	rightSeg := tg.arena[mid:task.end]
	segLen := task.end - task.start
	build := func(seg []int32) *histBuf {
		hb := tg.take()
		tg.runChunks(int32(len(seg)), opFill, hb, nil, seg)
		return hb
	}
	derive := func(child *histBuf) *histBuf {
		tg.runChunks(segLen, opSub, task.hb, child, nil)
		hb := task.hb
		task.hb = nil
		return hb
	}
	switch {
	case !leftLeaf && !rightLeaf:
		// Build the smaller child, derive the larger (ties build left).
		if len(leftSeg) <= len(rightSeg) {
			lhb = build(leftSeg)
			rhb = derive(lhb)
		} else {
			rhb = build(rightSeg)
			lhb = derive(rhb)
		}
	case !leftLeaf:
		if len(rightSeg) < len(leftSeg) {
			rb := build(rightSeg)
			lhb = derive(rb)
			tg.release(rb)
		} else {
			lhb = build(leftSeg)
			tg.release(task.hb)
			task.hb = nil
		}
	default: // !rightLeaf
		if len(leftSeg) < len(rightSeg) {
			lb := build(leftSeg)
			rhb = derive(lb)
			tg.release(lb)
		} else {
			rhb = build(rightSeg)
			tg.release(task.hb)
			task.hb = nil
		}
	}
	return lhb, rhb
}

// thresholdForBin converts a bin-index split back to a raw threshold.
func thresholdForBin(bins *binning, feature, bin int) float64 {
	uppers := bins.uppers[feature]
	if bin < len(uppers) {
		return uppers[bin]
	}
	return math.Inf(1)
}

// classRound is a classifier's row state across rounds: the row-major
// logits and the class-major columns the class trees read and write.
type classRound struct {
	labels []int
	// logits is n x k row-major: the init scores plus every round the
	// round pass has applied.
	logits []float64
	// gh[c] is class c's interleaved gradient pairs, row r's at
	// gh[c][2r], gh[c][2r+1]; leafOut[c][r] is row r's leaf value in the
	// last class-c tree.
	gh, leafOut [][]float64
	logp        []float64   // row r's log-probability of its label
	probs       [][]float64 // a softmax scratch per row range
	// apply is the running pass's apply, and part the pass over range p
	// as a func value made once, which the crew runs.
	apply bool
	part  func(p int)
}

func newClassRound(eng *histEngine, labels []int, init []float64) *classRound {
	n, k := len(labels), len(init)
	parts := 1
	if n > lossChunk {
		parts = eng.workers
	}
	cr := &classRound{labels: labels, logits: make([]float64, n*k), logp: make([]float64, n),
		gh: make([][]float64, k), leafOut: make([][]float64, k), probs: make([][]float64, parts)}
	for i := 0; i < n; i++ {
		copy(cr.logits[i*k:(i+1)*k], init)
	}
	gh, leafOut, probs := make([]float64, 2*n*k), make([]float64, n*k), make([]float64, parts*k)
	for c := range cr.gh {
		cr.gh[c], cr.leafOut[c] = gh[2*n*c:2*n*(c+1)], leafOut[n*c:n*(c+1)]
	}
	for p := range cr.probs {
		cr.probs[p] = probs[p*k : (p+1)*k]
	}
	cr.part = cr.runPart
	return cr
}

// run is a round's row pass: for every row it adds last round's leaf
// values to the logits when apply is set, runs the softmax and writes
// every class's gradient pair, and it returns the summed log-loss. Each
// of the crew's workers takes one contiguous row range (a training of
// at most lossChunk rows runs on the caller); the loss is summed
// afterwards in lossChunk-row chunks, in chunk order, so it is the same
// at any worker count.
func (cr *classRound) run(c *crew, apply bool) float64 {
	n := len(cr.labels)
	cr.apply = apply
	if len(cr.probs) == 1 {
		cr.part(0)
	} else {
		c.run(cr.part)
	}
	var loss float64
	for lo := 0; lo < n; lo += lossChunk {
		var chunk float64
		for _, lp := range cr.logp[lo:min(lo+lossChunk, n)] {
			chunk -= lp
		}
		loss += chunk
	}
	return loss
}

// runPart runs the row pass over range p of len(cr.probs).
func (cr *classRound) runPart(p int) {
	n, parts := len(cr.labels), len(cr.probs)
	cr.rows(p*n/parts, (p+1)*n/parts, cr.probs[p], cr.apply)
}

// rows runs the row pass over rows [lo, hi). The builtin max keeps
// math.Max's rule for NaN and signed zeros, inline.
func (cr *classRound) rows(lo, hi int, probs []float64, apply bool) {
	k := len(probs)
	for i := lo; i < hi; i++ {
		row := cr.logits[i*k : (i+1)*k]
		if apply {
			for c := range row {
				row[c] += cr.leafOut[c][i]
			}
		}
		softmax(row, probs)
		label := cr.labels[i]
		cr.logp[i] = math.Log(max(probs[label], 1e-15))
		for c, p := range probs {
			y := 0.0
			if label == c {
				y = 1
			}
			gh := cr.gh[c]
			gh[2*i] = p - y
			gh[2*i+1] = max(p*(1-p), 1e-6)
		}
	}
}
