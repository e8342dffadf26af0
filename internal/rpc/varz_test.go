package rpc

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/golden"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/registry"
	"repro/internal/rpc/wire"
)

// TestVarzGolden pins the /varz text exposition byte for byte with
// fixed snapshot values: the keys and formats are an operational
// contract scrapers depend on. Regenerate with UPDATE_GOLDEN=1.
func TestVarzGolden(t *testing.T) {
	info := wire.ModelInfo{
		Workload:      "analytics/shuffle",
		ModelVersion:  7,
		NumCategories: 15,
		Shards:        8,
		Swaps:         6,
	}
	rpcSnap := DaemonStats{
		PlaceRequests:   12000,
		PlaceJSON:       4000,
		PlaceBinary:     8000,
		PlaceJobs:       768000,
		StreamSessions:  3,
		OutcomeRequests: 512000,
		ModelRequests:   42,
		Shed:            1310,
		BadRequests:     7,
		ServerErrors:    1,
		MeanLatency:     1473 * time.Microsecond,
		MaxLatency:      22 * time.Millisecond,
	}
	srvSnap := metrics.ShardSnapshot{
		Submitted:      768000,
		Admitted:       505344,
		Observations:   512000,
		Batches:        13776,
		FullFlushes:    11900,
		TimeoutFlushes: 1876,
		DrainFlushes:   1240,
		MeanBatchSize:  55.75,
		MeanLatency:    912 * time.Microsecond,
		MaxLatency:     18 * time.Millisecond,
	}
	onlSnap := online.Stats{
		Observations:       512000,
		Evictions:          503808,
		DriftTriggers:      2,
		CadenceTriggers:    11,
		Retrains:           13,
		GateAccepts:        6,
		GateRejects:        7,
		TrainErrors:        0,
		MeanRetrainLatency: 840 * time.Millisecond,
		MaxRetrainLatency:  1900 * time.Millisecond,
	}

	proc := obs.ProcSnapshot{
		UptimeSec:      86400,
		GoVersion:      "go1.22.0",
		GOMAXPROCS:     16,
		NumGoroutine:   31,
		HeapInuseBytes: 25_165_824,
		GCPauseTotalNs: 4_200_000,
		NumGC:          112,
	}
	// Fixed recordings, not live ones: histogram varz lines must be
	// byte-stable for fixed counts.
	histOf := func(vals ...int64) obs.HistSnapshot {
		var h obs.Histogram
		for _, v := range vals {
			h.Record(v)
		}
		return h.Snapshot()
	}
	v := &varzData{
		info:        info,
		proc:        proc,
		rpc:         rpcSnap,
		srv:         srvSnap,
		streamsOpen: 2,
		modelBytes:  1_330_494,
		act:         3,
		reg:         registry.Residency{Versions: 7, Bytes: 9_313_458},
		placeJSON:   histOf(1_100_000, 1_400_000, 2_000_000),
		placeBinary: histOf(300_000, 350_000, 410_000, 900_000),
		outcome:     histOf(200_000, 210_000),
		queueWait:   histOf(0, 1000, 2500, 40_000),
		batchLat:    histOf(800_000, 950_000, 1_800_000),
		queueDepth:  histOf(0, 0, 1, 3, 17),
		onl:         &onlSnap,
	}

	var b bytes.Buffer
	writeVarz(&b, v)
	golden.Check(t, "testdata/varz.golden", b.Bytes())

	// Without a learner the optional block is absent but everything
	// above it is byte-identical.
	bareData := *v
	bareData.onl = nil
	var bare bytes.Buffer
	writeVarz(&bare, &bareData)
	if !bytes.HasPrefix(b.Bytes(), bare.Bytes()) {
		t.Error("bare varz is not a prefix of the full exposition")
	}
}

// TestStatsFromHists: the request counts and the latency mean and max
// the daemon reports are read off its endpoint histograms, the mean as
// one integer division of the summed nanoseconds.
func TestStatsFromHists(t *testing.T) {
	var d Daemon
	var placeJSON, placeBinary, outcome obs.Histogram
	placeJSON.RecordDuration(2 * time.Millisecond)
	placeJSON.RecordDuration(1)
	placeBinary.RecordDuration(4 * time.Millisecond)
	outcome.RecordDuration(3 * time.Millisecond)
	pj, pb, oc := placeJSON.Snapshot(), placeBinary.Snapshot(), outcome.Snapshot()
	want := DaemonStats{
		PlaceRequests:   3,
		PlaceJSON:       2,
		PlaceBinary:     1,
		OutcomeRequests: 1,
		MeanLatency:     2_250_000, // 9,000,001 ns over 4
		MaxLatency:      4 * time.Millisecond,
	}
	if got := d.stats(&pj, &pb, &oc); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	var empty obs.HistSnapshot
	if got := d.stats(&empty, &empty, &empty); got != (DaemonStats{}) {
		t.Errorf("empty histograms gave %+v", got)
	}
}
