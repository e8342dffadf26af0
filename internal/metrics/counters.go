package metrics

import (
	"sync/atomic"
	"time"
)

// ShardCounters holds the per-shard throughput and latency counters of
// the placement-serving layer. All fields are updated atomically, so a
// single instance can be shared between a shard worker and concurrent
// snapshot readers.
type ShardCounters struct {
	submitted      atomic.Int64
	admitted       atomic.Int64
	observations   atomic.Int64
	batches        atomic.Int64
	fullFlushes    atomic.Int64
	timeoutFlushes atomic.Int64
	drainFlushes   atomic.Int64
	latencyNs      atomic.Int64
	maxLatencyNs   atomic.Int64
}

// FlushKind says why a shard batch was closed.
type FlushKind int

const (
	// FlushFull: the batch reached BatchSize.
	FlushFull FlushKind = iota
	// FlushTimeout: the max-latency flush timer fired.
	FlushTimeout
	// FlushDrain: the queue drained with no submitter in flight, so the
	// partial batch was flushed immediately instead of waiting out the
	// timer (the adaptive low-QPS path).
	FlushDrain
)

// RecordDecision counts one served placement decision and its queue+
// inference latency.
func (c *ShardCounters) RecordDecision(admitted bool, latency time.Duration) {
	c.submitted.Add(1)
	if admitted {
		c.admitted.Add(1)
	}
	ns := latency.Nanoseconds()
	c.latencyNs.Add(ns)
	for {
		cur := c.maxLatencyNs.Load()
		if ns <= cur || c.maxLatencyNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// RecordObservation counts one feedback observation.
func (c *ShardCounters) RecordObservation() { c.observations.Add(1) }

// RecordBatch counts one processed batch and why it was flushed.
func (c *ShardCounters) RecordBatch(kind FlushKind) {
	c.batches.Add(1)
	switch kind {
	case FlushTimeout:
		c.timeoutFlushes.Add(1)
	case FlushDrain:
		c.drainFlushes.Add(1)
	default:
		c.fullFlushes.Add(1)
	}
}

// ShardSnapshot is a point-in-time copy of a shard's counters, in
// /varz order (obs.WriteVars).
type ShardSnapshot struct {
	Submitted      int64         `varz:"submitted"`
	Admitted       int64         `varz:"admitted"`
	Observations   int64         `varz:"observations"`
	Batches        int64         `varz:"batches"`
	FullFlushes    int64         `varz:"full_flushes"`
	TimeoutFlushes int64         `varz:"timeout_flushes"`
	DrainFlushes   int64         `varz:"drain_flushes"`
	MeanBatchSize  float64       `varz:"mean_batch_size"`
	MeanLatency    time.Duration `varz:"mean_latency_ns"`
	MaxLatency     time.Duration `varz:"max_latency_ns"`
}

// Snapshot copies the counters. Concurrent updates may tear between
// fields; each individual field is consistent.
func (c *ShardCounters) Snapshot() ShardSnapshot {
	s := ShardSnapshot{
		Submitted:      c.submitted.Load(),
		Admitted:       c.admitted.Load(),
		Observations:   c.observations.Load(),
		Batches:        c.batches.Load(),
		FullFlushes:    c.fullFlushes.Load(),
		TimeoutFlushes: c.timeoutFlushes.Load(),
		DrainFlushes:   c.drainFlushes.Load(),
		MaxLatency:     time.Duration(c.maxLatencyNs.Load()),
	}
	if s.Submitted > 0 {
		s.MeanLatency = time.Duration(c.latencyNs.Load() / s.Submitted)
	}
	if s.Batches > 0 {
		s.MeanBatchSize = float64(s.Submitted) / float64(s.Batches)
	}
	return s
}

// Merge sums per-shard snapshots into one server-wide view: counts add,
// MeanLatency is submission-weighted and MaxLatency is the maximum.
func Merge(snaps []ShardSnapshot) ShardSnapshot {
	var out ShardSnapshot
	var latNs int64
	for _, s := range snaps {
		out.Submitted += s.Submitted
		out.Admitted += s.Admitted
		out.Observations += s.Observations
		out.Batches += s.Batches
		out.FullFlushes += s.FullFlushes
		out.TimeoutFlushes += s.TimeoutFlushes
		out.DrainFlushes += s.DrainFlushes
		latNs += int64(s.MeanLatency) * s.Submitted
		if s.MaxLatency > out.MaxLatency {
			out.MaxLatency = s.MaxLatency
		}
	}
	if out.Submitted > 0 {
		out.MeanLatency = time.Duration(latNs / out.Submitted)
	}
	if out.Batches > 0 {
		out.MeanBatchSize = float64(out.Submitted) / float64(out.Batches)
	}
	return out
}
