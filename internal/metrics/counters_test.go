package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestShardCountersSnapshot(t *testing.T) {
	var c ShardCounters
	c.RecordDecision(true, 10*time.Microsecond)
	c.RecordDecision(false, 30*time.Microsecond)
	c.RecordDecision(true, 20*time.Microsecond)
	c.RecordObservation()
	c.RecordBatch(FlushFull)
	c.RecordBatch(FlushTimeout)
	c.RecordBatch(FlushDrain)

	s := c.Snapshot()
	if s.Submitted != 3 || s.Admitted != 2 || s.Observations != 1 {
		t.Fatalf("bad counts: %+v", s)
	}
	if s.Batches != 3 || s.FullFlushes != 1 || s.TimeoutFlushes != 1 || s.DrainFlushes != 1 {
		t.Fatalf("bad batch counts: %+v", s)
	}
	if s.MeanLatency != 20*time.Microsecond {
		t.Fatalf("mean latency %s, want 20us", s.MeanLatency)
	}
	if s.MaxLatency != 30*time.Microsecond {
		t.Fatalf("max latency %s, want 30us", s.MaxLatency)
	}
	if s.MeanBatchSize != 1.0 {
		t.Fatalf("mean batch size %g, want 1.0", s.MeanBatchSize)
	}
}

func TestShardCountersZeroSnapshot(t *testing.T) {
	var c ShardCounters
	s := c.Snapshot()
	if s.MeanLatency != 0 || s.MeanBatchSize != 0 || s.Submitted != 0 {
		t.Fatalf("zero counters gave %+v", s)
	}
}

func TestShardCountersConcurrent(t *testing.T) {
	var c ShardCounters
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.RecordDecision(i%2 == 0, time.Duration(i)*time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Submitted != 4000 || s.Admitted != 2000 {
		t.Fatalf("lost updates: %+v", s)
	}
	if s.MaxLatency != 499*time.Nanosecond {
		t.Fatalf("max latency %s, want 499ns", s.MaxLatency)
	}
}

func TestMerge(t *testing.T) {
	var a, b ShardCounters
	a.RecordDecision(true, 10*time.Microsecond)
	a.RecordBatch(FlushFull)
	b.RecordDecision(false, 30*time.Microsecond)
	b.RecordDecision(false, 50*time.Microsecond)
	b.RecordBatch(FlushTimeout)

	m := Merge([]ShardSnapshot{a.Snapshot(), b.Snapshot()})
	if m.Submitted != 3 || m.Admitted != 1 || m.Batches != 2 {
		t.Fatalf("bad merged counts: %+v", m)
	}
	if m.MaxLatency != 50*time.Microsecond {
		t.Fatalf("merged max latency %s", m.MaxLatency)
	}
	if m.MeanLatency != 30*time.Microsecond {
		t.Fatalf("merged mean latency %s, want 30us", m.MeanLatency)
	}
	if m.MeanBatchSize != 1.5 {
		t.Fatalf("merged mean batch size %g", m.MeanBatchSize)
	}
}

func TestMergeEmpty(t *testing.T) {
	m := Merge(nil)
	if m.Submitted != 0 || m.MeanLatency != 0 {
		t.Fatalf("empty merge gave %+v", m)
	}
}

// TestWriteTextShard pins the serving-layer exposition line for line:
// /varz and placementd's drain dump both render it.
func TestWriteTextShard(t *testing.T) {
	s := ShardSnapshot{
		Submitted:      1000,
		Admitted:       640,
		Observations:   12,
		Batches:        20,
		FullFlushes:    14,
		TimeoutFlushes: 5,
		DrainFlushes:   1,
		MeanBatchSize:  50,
		MeanLatency:    1500 * time.Microsecond,
		MaxLatency:     9 * time.Millisecond,
	}
	var b strings.Builder
	obs.WriteVars(&b, "serve", s)
	want := strings.Join([]string{
		"serve_submitted 1000",
		"serve_admitted 640",
		"serve_observations 12",
		"serve_batches 20",
		"serve_full_flushes 14",
		"serve_timeout_flushes 5",
		"serve_drain_flushes 1",
		"serve_mean_batch_size 50.00",
		"serve_mean_latency_ns 1500000",
		"serve_max_latency_ns 9000000",
		"",
	}, "\n")
	if b.String() != want {
		t.Errorf("shard exposition:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}
