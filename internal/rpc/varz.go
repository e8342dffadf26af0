package rpc

import (
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/registry"
	"repro/internal/rpc/wire"
)

// varzData is everything /varz renders, gathered by the handler so the
// renderer itself is pure: fixed inputs produce fixed bytes, which is
// what lets the golden test pin the exposition format while live pages
// carry wall-clock data (uptime, latency histograms).
type varzData struct {
	info wire.ModelInfo
	proc obs.ProcSnapshot
	rpc  DaemonStats
	srv  metrics.ShardSnapshot
	// streamsOpen is the stream sessions connected right now, most of
	// them parked in some client's idle list; rpc.StreamSessions counts
	// every one ever accepted.
	streamsOpen int
	// modelBytes is what the serving version's model, its forest
	// included, keeps resident (serve.Server.ResidentBytes).
	modelBytes int
	// act is the serving controller's admission category threshold
	// (serve.Server.ACT).
	act int
	// reg is what the daemon's registry holds, every version's model.
	reg registry.Residency

	// Endpoint latency/queue-wait histograms (nanoseconds) and the
	// serving core's batch-latency/queue-depth histograms.
	placeJSON   obs.HistSnapshot
	placeBinary obs.HistSnapshot
	outcome     obs.HistSnapshot
	queueWait   obs.HistSnapshot
	batchLat    obs.HistSnapshot
	queueDepth  obs.HistSnapshot

	// The optional section, appended after everything above so the bare
	// exposition stays a byte-prefix of the full one.
	onl *online.Stats
}

// writeVarz renders the daemon's ops page: model identity lines,
// process metadata, the request counters and their latency histograms,
// the serving core's counters and histograms with the registry's
// residency gauges, then (when attached) the online-loop counters. The
// output is deterministic for fixed snapshot values — the golden test
// pins it, so operators' scrapers can rely on the keys.
func writeVarz(w io.Writer, v *varzData) {
	fmt.Fprintf(w, "placementd_workload %s\n", v.info.Workload)
	fmt.Fprintf(w, "placementd_model_version %d\n", v.info.ModelVersion)
	fmt.Fprintf(w, "placementd_num_categories %d\n", v.info.NumCategories)
	fmt.Fprintf(w, "placementd_shards %d\n", v.info.Shards)
	fmt.Fprintf(w, "placementd_swaps %d\n", v.info.Swaps)
	obs.WriteVars(w, "placementd", v.proc)
	obs.WriteVars(w, "rpc", v.rpc)
	fmt.Fprintf(w, "rpc_stream_sessions_open %d\n", v.streamsOpen)
	v.placeJSON.WriteText(w, "rpc_place_json_latency_ns")
	v.placeBinary.WriteText(w, "rpc_place_binary_latency_ns")
	v.outcome.WriteText(w, "rpc_outcome_latency_ns")
	v.queueWait.WriteText(w, "rpc_queue_wait_ns")
	obs.WriteVars(w, "serve", v.srv)
	fmt.Fprintf(w, "serve_model_bytes %d\n", v.modelBytes)
	fmt.Fprintf(w, "serve_act %d\n", v.act)
	v.batchLat.WriteText(w, "serve_batch_latency_ns")
	v.queueDepth.WriteText(w, "serve_queue_depth")
	obs.WriteVars(w, "registry", v.reg)
	if v.onl != nil {
		obs.WriteVars(w, "online", *v.onl)
	}
}
