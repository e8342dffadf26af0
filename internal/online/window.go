package online

import "repro/internal/trace"

// entry is one windowed observation: the job (which, once its outcome
// is known, carries the ground-truth features a retrain consumes) and
// the category the serving model predicted for it (the drift
// detector's input).
type entry struct {
	job      *trace.Job
	category int
}

// window is the bounded sliding-window collector feeding retrains: a
// ring buffer with count-based eviction (MaxCount) and time-based
// eviction (entries whose job started more than HorizonSec before the
// newest observation fall out). It mirrors the training-window
// semantics of the paper's per-cluster retraining — the model only ever
// sees a recent contiguous slice of the feedback stream — and keeps a
// rolling per-category histogram for the drift detector.
//
// Entries are expected in roughly arrival order (the serving layer's
// Observe contract); eviction uses the newest arrival seen so far as
// "now", so modest reordering only widens the window slightly.
type window struct {
	ents       []entry // ring storage, len == cap == maxCount
	head       int     // index of the oldest entry
	count      int
	max        int
	horizonSec float64

	newestSec float64 // newest arrival observed so far
	catCounts []int   // rolling category histogram of the window
}

func newWindow(maxCount int, horizonSec float64, numCategories int) *window {
	return &window{
		ents:       make([]entry, maxCount),
		max:        maxCount,
		horizonSec: horizonSec,
		newestSec:  -1,
		catCounts:  make([]int, numCategories),
	}
}

// add appends one observation, evicting by count and time, and returns
// how many entries were evicted.
func (w *window) add(j *trace.Job, category int) int {
	evicted := 0
	if w.count == w.max {
		w.dropOldest()
		evicted++
	}
	tail := (w.head + w.count) % w.max
	w.ents[tail] = entry{job: j, category: category}
	w.count++
	if category >= 0 && category < len(w.catCounts) {
		w.catCounts[category]++
	}
	if j.ArrivalSec > w.newestSec {
		w.newestSec = j.ArrivalSec
	}
	evicted += w.evictExpired()
	return evicted
}

// evictExpired drops entries older than the time horizon relative to
// the newest observed arrival.
func (w *window) evictExpired() int {
	if w.horizonSec <= 0 {
		return 0
	}
	cutoff := w.newestSec - w.horizonSec
	n := 0
	for w.count > 0 && w.ents[w.head].job.ArrivalSec < cutoff {
		w.dropOldest()
		n++
	}
	return n
}

func (w *window) dropOldest() {
	e := &w.ents[w.head]
	if c := e.category; c >= 0 && c < len(w.catCounts) {
		w.catCounts[c]--
	}
	e.job = nil // release for GC
	w.head = (w.head + 1) % w.max
	w.count--
}

// snapshot copies the window's jobs oldest-first.
func (w *window) snapshot() []*trace.Job {
	out := make([]*trace.Job, w.count)
	for i := range out {
		out[i] = w.ents[(w.head+i)%w.max].job
	}
	return out
}

// distributionInto returns the window's normalized category histogram
// in buf's storage, or nil if the window is empty. The buffer is reused
// on the hot observation path (the per-Observe drift check must not
// allocate).
func (w *window) distributionInto(buf []float64) []float64 {
	if w.count == 0 {
		return nil
	}
	if cap(buf) < len(w.catCounts) {
		buf = make([]float64, len(w.catCounts))
	}
	buf = buf[:len(w.catCounts)]
	for i, c := range w.catCounts {
		buf[i] = float64(c) / float64(w.count)
	}
	return buf
}
