package metrics

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestMerge(t *testing.T) {
	a := ShardSnapshot{Submitted: 1, Admitted: 1, Batches: 1, FullFlushes: 1,
		MeanLatency: 10 * time.Microsecond, MaxLatency: 10 * time.Microsecond}
	b := ShardSnapshot{Submitted: 2, Batches: 1, TimeoutFlushes: 1,
		MeanLatency: 40 * time.Microsecond, MaxLatency: 50 * time.Microsecond}

	m := Merge([]ShardSnapshot{a, b})
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
