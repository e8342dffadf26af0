// Package obs is the serving stack's observability substrate: streaming
// latency histograms, sampled per-request tracing and process-level
// runtime metadata — the always-on, low-overhead instrumentation layer
// the ops plane (/varz, /tracez, -debug-addr) renders.
//
// Design constraints, in order:
//
//   - The hot path must stay hot. Histogram.Record is lock-free (two
//     atomic adds plus a bounded CAS for the max) and an unsampled
//     request performs zero allocations end to end (one atomic add in
//     Tracer.Begin, nil-builder no-ops everywhere else) — regression-
//     tested with testing.AllocsPerRun and benchmarked against the
//     binary place path.
//   - Snapshots must merge. Per-shard and per-node histograms share one
//     fixed bucket layout, so fleet- or server-wide views are exact sums
//     of the parts (property-tested: merged == concatenated).
//   - Rendering must be byte-stable for fixed values. Golden tests pin
//     the /varz and /tracez text, so scrapers can rely on the keys.
//   - Wall-clock data stays OUT of scenario reports and goldens: the
//     determinism contract of the repo's replay/report pipeline is
//     untouched. Histograms and traces surface only through /varz,
//     /tracez and Stats-style accessors.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// Bucket layout: values 0..3 get exact buckets; beyond that each
// power-of-two octave splits into 4 log-spaced sub-buckets, so every
// bucket's width is at most ~25% of its lower bound. That one fixed,
// unit-agnostic scheme covers the full non-negative int64 range —
// nanosecond latencies and queue depths alike — which is what makes
// every histogram in the system mergeable with every other.
const (
	// NumBuckets is the fixed bucket count (indices 0..NumBuckets-1
	// cover all of [0, MaxInt64]).
	NumBuckets = 248
	// numShards spreads Record's atomic adds across cache lines;
	// snapshots sum the shards.
	numShards = 4
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < 4 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	u := uint64(v)
	e := bits.Len64(u) - 1 // floor(log2 u), >= 2
	sub := (u >> uint(e-2)) & 3
	return 4*(e-1) + int(sub)
}

// BucketLower returns bucket i's inclusive lower bound.
func BucketLower(i int) int64 {
	if i < 4 {
		return int64(i)
	}
	e := i/4 + 1
	sub := i % 4
	return int64(4+sub) << uint(e-2)
}

// BucketUpper returns bucket i's inclusive upper bound (MaxInt64 for
// the last bucket).
func BucketUpper(i int) int64 {
	if i >= NumBuckets-1 {
		return math.MaxInt64
	}
	return BucketLower(i+1) - 1
}

// histShard is one stripe of counters. The counts array dominates its
// size, so stripes land on distinct cache-line runs without padding.
type histShard struct {
	counts [NumBuckets]atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// Histogram is a lock-free streaming histogram over non-negative int64
// values (negative values clamp to 0). The zero value is ready to use.
// Record never blocks and never allocates; Snapshot may run concurrently
// with recorders (it sees some consistent-enough recent state, exactly
// like the repo's other counters).
type Histogram struct {
	shards [numShards]histShard
}

// Record adds one value.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	// Stripe by a per-thread random draw (rand/v2's global source is
	// lock-free and allocation-free), not by value: contention relief
	// without any coordination.
	sh := &h.shards[rand.Uint64()&(numShards-1)]
	sh.counts[bucketIndex(v)].Add(1)
	sh.sum.Add(v)
	for {
		cur := sh.max.Load()
		if v <= cur || sh.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// RecordDuration records a duration in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Snapshot sums the shards into a mergeable point-in-time view.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.counts {
			s.Counts[b] += sh.counts[b].Load()
		}
		s.Sum += sh.sum.Load()
		if m := sh.max.Load(); m > s.Max {
			s.Max = m
		}
	}
	for b := range s.Counts {
		s.Count += s.Counts[b]
	}
	return s
}

// HistSnapshot is a merged, immutable histogram state. Snapshots from
// any Histogram share the fixed bucket bounds, so Merge is exact.
type HistSnapshot struct {
	Counts [NumBuckets]int64
	Count  int64
	Sum    int64
	Max    int64
}

// Merge folds o into s. Merging the snapshots of N histograms yields
// exactly the snapshot of one histogram fed all N value streams.
func (s *HistSnapshot) Merge(o *HistSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Quantile estimates the q-quantile by linear interpolation inside the
// covering bucket. The estimate is within one bucket of the true sample
// quantile, i.e. its relative error is bounded by the bucket width
// (~25% of the value; exact below 4). The top bucket is tightened to
// the exact tracked max, so estimates never exceed an observed value.
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Fractional rank over Count samples, matching metrics.Quantile's
	// (n-1)-scaled positioning so the two agree on exact data.
	rank := q * float64(s.Count-1)
	cum := int64(0)
	for i := range s.Counts {
		c := s.Counts[i]
		if c == 0 {
			continue
		}
		if float64(cum+c)-1 >= rank {
			lo, hi := BucketLower(i), BucketUpper(i)
			if s.Max >= lo && s.Max < hi {
				hi = s.Max
			}
			if hi <= lo || c == 1 {
				return float64(lo)
			}
			frac := (rank - float64(cum)) / float64(c-1)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += c
	}
	return float64(s.Max)
}

// WriteText renders the shared text exposition: exact count/sum/max,
// estimated p50/p95/p99 (rounded to integers), then one cumulative
// `<name>_le_<upper>` line per non-empty bucket. Deterministic for
// fixed counts — golden tests pin it.
func (s *HistSnapshot) WriteText(w io.Writer, name string) {
	s.WriteTextLabeled(w, name, "")
}

// WriteTextLabeled is WriteText with a label suffix spliced into every
// key (e.g. `{node="n0"}`), for per-node renderings.
func (s *HistSnapshot) WriteTextLabeled(w io.Writer, name, label string) {
	fmt.Fprintf(w, "%s_count%s %d\n", name, label, s.Count)
	fmt.Fprintf(w, "%s_sum%s %d\n", name, label, s.Sum)
	fmt.Fprintf(w, "%s_max%s %d\n", name, label, s.Max)
	fmt.Fprintf(w, "%s_p50%s %d\n", name, label, int64(math.Round(s.Quantile(0.50))))
	fmt.Fprintf(w, "%s_p95%s %d\n", name, label, int64(math.Round(s.Quantile(0.95))))
	fmt.Fprintf(w, "%s_p99%s %d\n", name, label, int64(math.Round(s.Quantile(0.99))))
	cum := int64(0)
	for i := range s.Counts {
		if s.Counts[i] == 0 {
			continue
		}
		cum += s.Counts[i]
		if i == NumBuckets-1 {
			fmt.Fprintf(w, "%s_le_inf%s %d\n", name, label, cum)
			continue
		}
		fmt.Fprintf(w, "%s_le_%d%s %d\n", name, BucketUpper(i), label, cum)
	}
}
