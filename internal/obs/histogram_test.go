package obs

import (
	"bytes"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/golden"
	"repro/internal/metrics"
)

func TestBucketSchemeInvariants(t *testing.T) {
	// Bounds tile [0, MaxInt64] with no gaps or overlaps.
	if BucketLower(0) != 0 {
		t.Fatalf("BucketLower(0) = %d, want 0", BucketLower(0))
	}
	for i := 0; i < NumBuckets-1; i++ {
		if BucketUpper(i)+1 != BucketLower(i+1) {
			t.Fatalf("bucket %d upper %d does not abut bucket %d lower %d",
				i, BucketUpper(i), i+1, BucketLower(i+1))
		}
	}
	if BucketUpper(NumBuckets-1) != math.MaxInt64 {
		t.Fatalf("last bucket upper = %d, want MaxInt64", BucketUpper(NumBuckets-1))
	}
	// Every bound maps back into its own bucket, and bucket width stays
	// within ~25% of the lower bound (the documented quantile error).
	for i := 0; i < NumBuckets; i++ {
		lo, hi := BucketLower(i), BucketUpper(i)
		if bucketIndex(lo) != i {
			t.Fatalf("bucketIndex(%d) = %d, want %d", lo, bucketIndex(lo), i)
		}
		if bucketIndex(hi) != i {
			t.Fatalf("bucketIndex(%d) = %d, want %d", hi, bucketIndex(hi), i)
		}
		if i >= 4 && i < NumBuckets-1 {
			if width := hi - lo + 1; float64(width) > 0.26*float64(lo) {
				t.Fatalf("bucket %d [%d,%d] width %d exceeds 26%% of lower bound", i, lo, hi, width)
			}
		}
	}
	// Extremes stay in range.
	if got := bucketIndex(math.MaxInt64); got != NumBuckets-1 {
		t.Fatalf("bucketIndex(MaxInt64) = %d, want %d", got, NumBuckets-1)
	}
	if got := bucketIndex(-5); got != 0 {
		t.Fatalf("bucketIndex(-5) = %d, want 0", got)
	}
}

// TestMergeEqualsConcat is the mergeability property: recording a
// sample stream split across K histograms and merging their snapshots
// yields exactly the snapshot of one histogram fed the whole stream.
func TestMergeEqualsConcat(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	const parts = 5
	samples := make([]int64, 20000)
	for i := range samples {
		// Mix scales: sub-microsecond, millisecond, second, plus exact
		// small values (queue depths).
		switch rng.IntN(4) {
		case 0:
			samples[i] = rng.Int64N(16)
		case 1:
			samples[i] = rng.Int64N(1e6)
		case 2:
			samples[i] = rng.Int64N(1e9)
		default:
			samples[i] = rng.Int64N(math.MaxInt64)
		}
	}
	var whole Histogram
	var split [parts]Histogram
	for i, v := range samples {
		whole.Record(v)
		split[i%parts].Record(v)
	}
	merged := split[0].Snapshot()
	for i := 1; i < parts; i++ {
		part := split[i].Snapshot()
		merged.Merge(&part)
	}
	want := whole.Snapshot()
	if merged != want {
		t.Fatalf("merged snapshot differs from whole-stream snapshot:\nmerged count=%d sum=%d max=%d\nwhole  count=%d sum=%d max=%d",
			merged.Count, merged.Sum, merged.Max, want.Count, want.Sum, want.Max)
	}
}

// TestQuantileWithinOneBucket checks the estimation contract: for
// every probed q, the estimated quantile lands in the same bucket as
// metrics.Quantile ground truth, or an adjacent one.
func TestQuantileWithinOneBucket(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for trial := 0; trial < 20; trial++ {
		n := 100 + rng.IntN(5000)
		raw := make([]float64, n)
		var h Histogram
		for i := range raw {
			var v int64
			switch rng.IntN(3) {
			case 0:
				v = rng.Int64N(64)
			case 1:
				v = rng.Int64N(2e6)
			default:
				v = rng.Int64N(5e9)
			}
			raw[i] = float64(v)
			h.Record(v)
		}
		s := h.Snapshot()
		for _, q := range []float64{0, 0.25, 0.50, 0.90, 0.95, 0.99, 1} {
			truth := metrics.Quantile(raw, q)
			est := s.Quantile(q)
			bTruth := bucketIndex(int64(truth))
			bEst := bucketIndex(int64(est))
			if d := bEst - bTruth; d < -1 || d > 1 {
				t.Fatalf("trial %d q=%g: estimate %g (bucket %d) is %d buckets from truth %g (bucket %d)",
					trial, q, est, bEst, d, truth, bTruth)
			}
		}
	}
}

// TestHistogramConcurrent exercises Record/Snapshot under -race and
// checks nothing is lost.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() { // concurrent reader
		for {
			select {
			case <-done:
				return
			default:
				_ = h.Snapshot()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Record(int64(w*perWorker + i))
			}
		}()
	}
	wg.Wait()
	close(done)
	s := h.Snapshot()
	if want := int64(workers * perWorker); s.Count != want {
		t.Fatalf("count = %d, want %d", s.Count, want)
	}
	if want := int64(workers*perWorker - 1); s.Max != want {
		t.Fatalf("max = %d, want %d", s.Max, want)
	}
}

func TestHistogramRecordNoAllocs(t *testing.T) {
	var h Histogram
	if allocs := testing.AllocsPerRun(1000, func() { h.Record(123456) }); allocs != 0 {
		t.Fatalf("Record allocates %v times per call, want 0", allocs)
	}
}

func TestHistogramWriteTextGolden(t *testing.T) {
	// Fixed values, not live recordings: the rendering must be
	// byte-stable for fixed counts (wall-clock data never reaches
	// goldens; this pins the renderer, not a measurement).
	var h Histogram
	for _, v := range []int64{0, 1, 1, 3, 900, 1500, 1500, 2100, 1_000_000, 22_000_000} {
		h.Record(v)
	}
	s := h.Snapshot()
	var buf bytes.Buffer
	s.WriteText(&buf, "rpc_place_binary_latency_ns")
	s.WriteTextLabeled(&buf, "router_dispatch_latency_ns", `{node="http://127.0.0.1:7070"}`)
	golden.Check(t, "testdata/histogram.golden", buf.Bytes())
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty HistSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
	var h Histogram
	h.Record(5_000_000)
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != float64(BucketLower(bucketIndex(5_000_000))) {
			t.Fatalf("single-sample quantile(%g) = %g", q, got)
		}
	}
	if s.Max != 5_000_000 {
		t.Fatalf("max = %d", s.Max)
	}
	if got := s.Quantile(1); got > float64(s.Max) {
		t.Fatalf("quantile(1) = %g exceeds max %d", got, s.Max)
	}
}
