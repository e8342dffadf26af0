package metrics

import "time"

// ShardSnapshot is a point-in-time copy of the serving core's counters,
// in /varz order (obs.WriteVars).
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

// Merge sums snapshots, one per server of a plane, into one view: counts
// add, MeanLatency is submission-weighted and MaxLatency is the maximum.
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
