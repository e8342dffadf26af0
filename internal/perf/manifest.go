package perf

import (
	"encoding/json"
	"time"
)

// transport is the path a workload's requests take.
type transport int

const (
	viaJSON    transport = iota // rpc.Client.Place, JSON codec
	viaBinary                   // rpc.Client.Place, binary codec
	viaStream                   // rpc.StreamSession.Place
	viaPlane                    // router.Router.Place over a 2-node plane, with outcome feedback
	viaOffline                  // no serving code: training and the scenario suite
)

// Workload is one named traffic mix over the fixture.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists, as BENCHMARK.json
	// records it.
	Why   string
	Scale Scale
	via   transport
	// batch is the jobs per request.
	batch int
	// period, when positive, sends each connection's requests on a
	// fixed schedule instead of back to back.
	period time.Duration
}

// Connections is the closed loop's width: one submitter per core of the
// 2-core box the bounds were derived on.
const Connections = 2

// Workloads lists the seven workloads in the order a full run takes
// them.
func Workloads() []Workload {
	return []Workload{
		{Name: "json-paper", Scale: ScalePaper, via: viaJSON, batch: 64,
			Why: "JSON place at paper model scale: the only path with daemon-side feature encoding and two JSON codecs."},
		{Name: "binary-paper", Scale: ScalePaper, via: viaBinary, batch: 64,
			Why: "Binary place at paper model scale, the headline setup: forest inference dominates, so inference work shows and transport work does not."},
		{Name: "binary-lite", Scale: ScaleLite, via: viaBinary, batch: 64,
			Why: "Binary place with a small forest: HTTP framing, admission, codec and client-side feature work dominate."},
		{Name: "stream-lite", Scale: ScaleLite, via: viaStream, batch: 64,
			Why: "Same frames on a persistent stream: bypasses per-request HTTP and is the floor for serve queueing and batching cost."},
		{Name: "paced-paper", Scale: ScalePaper, via: viaBinary, batch: 8, period: 4 * time.Millisecond,
			Why: "8-job binary requests on a fixed 4 ms schedule per connection, about a third of capacity: under-filled batches and the flush timer, latency from the due time."},
		{Name: "plane-feedback", Scale: ScaleLite, via: viaPlane, batch: 64,
			Why: "Router over a 2-node plane with one outcome post per placed job: routing, fan-out and the feedback write path beside reads."},
		{Name: "offline-suite", Scale: ScalePaper, via: viaOffline, batch: 64,
			Why: "Paper-scale training plus the scenario suite, no serving code: the bypass for every serving change and the guard for deletions."},
	}
}

// FindWorkload looks a workload up by name.
func FindWorkload(name string) (Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// MetricDef declares one reported metric.
type MetricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median an end-to-end metric
	// may worsen by; per-layer metrics carry none.
	Bound float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// EndToEnd lists the metrics an untraced run reports on every workload,
// each with the share of the parent's median it may worsen by. Only
// counts are gated. On the shared 2-core box this was built on,
// identical runs differ between quartiles by 5 to 14 % of the median in
// throughput, latency and CPU time in a quiet quarter of an hour and by
// 12 to 50 % in a busy one (see the README), past the 25 % a bound may
// be; so, by the issue's own rule, the timings are reported per layer
// (perf.jobs_per_s, perf.batch_p50_ms, perf.cpu_us_per_job,
// perf.batch_p99_ms) rather than gated on noise. The two counts repeat
// to within 2 %; bytes allocated per job do not (14 % on paced-paper,
// where how often a collection empties the scratch pools follows the
// clock) and are perf.alloc_bytes_per_job.
var EndToEnd = []MetricDef{
	{"setup_s", "s", lower, 0.25},
	{"allocs_per_job", "count", lower, 0.06},
	{"heap_live_mb", "MB", lower, 0.10},
}

// PerLayer lists the metrics a traced run reports on every workload.
var PerLayer = []MetricDef{
	{Name: "features.encode_us_per_job", Unit: "us", Better: lower},
	{Name: "features.encode_allocs_per_job", Unit: "count", Better: lower},
	{Name: "features.bin_us_per_job", Unit: "us", Better: lower},
	{Name: "features.unbin_us_per_job", Unit: "us", Better: lower},
	{Name: "features.row_repeat_share", Unit: "ratio", Better: higher},

	{Name: "gbdt.predict_us_per_job", Unit: "us", Better: lower},
	{Name: "gbdt.predict_single_us_per_job", Unit: "us", Better: lower},
	{Name: "gbdt.train_s", Unit: "s", Better: lower},

	{Name: "core.admit_ns_per_job", Unit: "ns", Better: lower},
	{Name: "core.observe_ns_per_job", Unit: "ns", Better: lower},
	{Name: "core.label_encode_s", Unit: "s", Better: lower},
	{Name: "core.admit_share", Unit: "ratio", Better: higher},

	{Name: "wire.bin_codec_us_per_job", Unit: "us", Better: lower},
	{Name: "wire.json_codec_us_per_job", Unit: "us", Better: lower},
	{Name: "wire.bin_bytes_per_job", Unit: "bytes", Better: lower},
	{Name: "wire.json_bytes_per_job", Unit: "bytes", Better: lower},

	{Name: "serve.submit_encoded_us_per_job", Unit: "us", Better: lower},
	{Name: "serve.submit_batch_us_per_job", Unit: "us", Better: lower},
	{Name: "serve.self_us_per_job", Unit: "us", Better: lower},
	{Name: "serve.observe_us_per_job", Unit: "us", Better: lower},
	{Name: "serve.mean_batch_size", Unit: "count", Better: higher},
	{Name: "serve.timeout_flush_share", Unit: "ratio", Better: lower},
	{Name: "serve.drain_flush_share", Unit: "ratio", Better: lower},

	{Name: "rpc.place_json_us_per_job", Unit: "us", Better: lower},
	{Name: "rpc.place_binary_us_per_job", Unit: "us", Better: lower},
	{Name: "rpc.place_stream_us_per_job", Unit: "us", Better: lower},
	{Name: "rpc.json_self_us_per_job", Unit: "us", Better: lower},
	{Name: "rpc.binary_self_us_per_job", Unit: "us", Better: lower},
	{Name: "rpc.stream_self_us_per_job", Unit: "us", Better: lower},
	{Name: "rpc.observe_us_per_job", Unit: "us", Better: lower},
	{Name: "rpc.shed_share", Unit: "ratio", Better: lower},
	{Name: "rpc.retry_share", Unit: "ratio", Better: lower},

	{Name: "router.place_us_per_job", Unit: "us", Better: lower},
	{Name: "router.self_us_per_job", Unit: "us", Better: lower},
	{Name: "router.observe_us_per_job", Unit: "us", Better: lower},
	{Name: "router.groups_per_batch", Unit: "count", Better: lower},
	{Name: "router.reroute_share", Unit: "ratio", Better: lower},
	{Name: "router.node_imbalance", Unit: "ratio", Better: lower},

	{Name: "scenario.sim_s", Unit: "s", Better: lower},
	{Name: "scenario.serve_s", Unit: "s", Better: lower},
	{Name: "scenario.online_s", Unit: "s", Better: lower},
	{Name: "scenario.fleet_s", Unit: "s", Better: lower},
	{Name: "scenario.rebalance_s", Unit: "s", Better: lower},
	{Name: "sim.run_us_per_job", Unit: "us", Better: lower},
	{Name: "trace.generate_us_per_job", Unit: "us", Better: lower},

	{Name: "obs.varz_p50_ratio", Unit: "ratio", Better: higher},

	{Name: "perf.requests", Unit: "count", Better: higher},
	{Name: "perf.late_share", Unit: "ratio", Better: lower},
	{Name: "perf.achieved_jobs_per_s", Unit: "jobs/s", Better: higher},
	{Name: "perf.procs1_jobs_per_s", Unit: "jobs/s", Better: higher},
	{Name: "perf.scaling_x", Unit: "x", Better: higher},
	{Name: "perf.ledger_residual_min_pct", Unit: "%", Better: higher},

	// Named end to end by the issue. The timings are reported here
	// because their spread on a shared box is wider than any bound the
	// contract allows; the rest because an end-to-end metric must be
	// non-zero and mean something on all seven workloads.
	{Name: "perf.jobs_per_s", Unit: "jobs/s", Better: higher},
	{Name: "perf.batch_p50_ms", Unit: "ms", Better: lower},
	{Name: "perf.batch_p99_ms", Unit: "ms", Better: lower},
	{Name: "perf.cpu_us_per_job", Unit: "us", Better: lower},
	{Name: "perf.alloc_bytes_per_job", Unit: "bytes", Better: lower},
	{Name: "perf.failed_share", Unit: "ratio", Better: lower},
	{Name: "perf.train_s", Unit: "s", Better: lower},
	{Name: "perf.tco_savings_pct", Unit: "%", Better: higher},
}

// RunSeconds is how long one run measures.
const RunSeconds = 6

// Manifest renders BENCHMARK.json from the tables above, so the file
// at the root of the repository and the program cannot disagree (a test
// compares them).
func Manifest() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./cmd/bench"},
		Paths:      []string{"cmd/bench", "internal/perf"},
		RunSeconds: RunSeconds,
	}
	for _, w := range Workloads() {
		m.Workloads = append(m.Workloads, workload{w.Name, w.Why})
	}
	for _, d := range EndToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range PerLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // the struct above always marshals
	}
	return append(out, '\n')
}
