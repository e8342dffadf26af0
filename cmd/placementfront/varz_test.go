package main

import (
	"bytes"
	"testing"

	"repro/internal/golden"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/rpc"
)

// TestVarzGolden pins the front's /varz byte for byte with fixed
// snapshot values, as the daemon's TestVarzGolden does for its page. The
// golden was written by the renderer as it was before the counters moved
// to obs.WriteVars, and is compared, never rewritten, even under
// UPDATE_GOLDEN: operators' scrapers read these keys.
func TestVarzGolden(t *testing.T) {
	histOf := func(vals ...int64) obs.HistSnapshot {
		var h obs.Histogram
		for _, v := range vals {
			h.Record(v)
		}
		return h.Snapshot()
	}
	v := &varzData{
		proc: obs.ProcSnapshot{
			UptimeSec:      3600,
			GoVersion:      "go1.22.0",
			GOMAXPROCS:     8,
			NumGoroutine:   57,
			HeapInuseBytes: 12_582_912,
			GCPauseTotalNs: 1_300_000,
			NumGC:          41,
		},
		router: router.Stats{
			Batches:       9100,
			Jobs:          291_200,
			Groups:        40_950,
			Dispatches:    18_200,
			Reroutes:      12,
			Failovers:     2,
			Failures:      1,
			Probes:        14_400,
			ProbeFailures: 9,
			WeightDecays:  4,
			Outcomes:      286_000,
		},
		client: rpc.ClientStats{Requests: 304_212, Sheds: 31, Retries: 29, Failures: 3},
		nodes: []router.NodeState{
			{Name: "n0", URL: "http://10.0.0.7:7070", Healthy: true, Weight: 1, Inflight: 64},
			{Name: "n1", URL: "http://10.0.0.8:7070", Healthy: false, Weight: 0.35, Inflight: 0},
		},
		dispatch: []router.NodeDispatch{
			{Name: "n0", URL: "http://10.0.0.7:7070", Hist: histOf(410_000, 520_000, 1_900_000)},
			{Name: "n1", URL: "http://10.0.0.8:7070", Hist: histOf(380_000, 2_000_000_000)},
		},
	}
	var b bytes.Buffer
	writeVarz(&b, v)
	if err := golden.Compare("testdata/varz.golden", b.Bytes()); err != nil {
		t.Errorf("%v\nThe golden is the earlier renderer's output: fix the renderer, not the file.", err)
	}
}
