// Package byom is the public API of the Bring-Your-Own-Model storage
// placement library — a Go reproduction of "A Bring-Your-Own-Model
// Approach for ML-Driven Storage Placement in Warehouse-Scale
// Computers" (MLSys 2025).
//
// The BYOM design splits placement across two layers:
//
//   - Application layer: each workload trains its own small,
//     interpretable category model (gradient boosted trees over
//     Table-2-style features) that ranks its jobs by "importance" —
//     a proxy for the TCO savings of placing the job on SSD.
//   - Storage layer: the Adaptive Category Selection Algorithm
//     (Algorithm 1) converts those per-job category hints into
//     admissions under whatever SSD capacity happens to be available,
//     using spillover feedback as its control signal.
//
// Typical usage:
//
//	cm := byom.DefaultCostModel()
//	model, err := byom.TrainCategoryModel(trainJobs, cm, byom.DefaultTrainOptions())
//	policy, err := byom.NewAdaptiveRankingPolicy(model, cm)
//	result, err := byom.Simulate(testTrace, policy, cm, byom.SimConfig{SSDQuota: quota})
//	fmt.Println(result.TCOSavingsPercent())
//
// Beyond the offline pipeline, the package exposes the deployment
// stack: NewServerFromRegistry serves placements concurrently with
// batched inference and registry-driven hot swap, NewOnlineLearner
// closes the loop by retraining on served outcomes and publishing
// gate-approved candidates back to the registry, and NewDaemon/
// NewClient put that serving stack behind a wire protocol — JSON over
// HTTP, and binary place and outcome frames on /v1/stream sessions —
// with admission control and an ops plane (see docs/ARCHITECTURE.md for
// the full data flow).
package byom

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/online"
	"repro/internal/oracle"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/router"
	"repro/internal/rpc"
	"repro/internal/rpc/wire"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Core data types re-exported from the internal packages.
type (
	// Job is one shuffle job: the unit of placement.
	Job = trace.Job
	// Trace is a time-ordered job collection.
	Trace = trace.Trace
	// Metadata holds the execution-metadata features (group B).
	Metadata = trace.Metadata
	// Resources holds the allocated-resources features (group C).
	Resources = trace.Resources
	// History holds the historical system metrics (group A).
	History = trace.History

	// CostModel evaluates TCIO and TCO (Section 3).
	CostModel = cost.Model

	// CategoryModel is a trained BYOM importance-ranking model.
	CategoryModel = core.CategoryModel
	// TrainOptions configures category-model training.
	TrainOptions = core.TrainOptions
	// AdaptiveConfig holds Algorithm 1's hyperparameters.
	AdaptiveConfig = core.AdaptiveConfig

	// Policy is the placement-policy interface used by Simulate.
	Policy = sim.Policy
	// SimConfig configures a simulation run.
	SimConfig = sim.Config
	// SimResult aggregates a simulation run.
	SimResult = sim.Result

	// GeneratorConfig configures the synthetic workload generator.
	GeneratorConfig = trace.GeneratorConfig

	// OracleConfig configures the clairvoyant ILP oracle.
	OracleConfig = oracle.Config
	// OracleResult holds oracle placement decisions.
	OracleResult = oracle.Result

	// PartialOutcome describes how much of a job ran on SSD, for
	// partial-savings accounting.
	PartialOutcome = cost.PartialOutcome

	// Server is the concurrent placement-serving front-end: one
	// Algorithm 1 controller fed by sharded, batched forest inference.
	Server = serve.Server
	// ServeConfig tunes the serving layer: its Algorithm 1 controller.
	ServeConfig = serve.Config
	// ServeDecision is one served placement verdict.
	ServeDecision = serve.Decision
	// ServeStats is a snapshot of serving throughput/latency counters.
	ServeStats = metrics.ShardSnapshot
	// ModelRegistry stores per-workload model versions; publishing to
	// it hot-swaps any server resolving that workload.
	ModelRegistry = registry.Registry
	// ModelVersion identifies one published model version.
	ModelVersion = registry.Version
	// Outcome reports how a placement played out (spillover feedback).
	Outcome = sim.Outcome

	// OnlineLearner closes the serving→training→deployment loop:
	// it windows the feedback stream, retrains on a cadence or drift
	// trigger, gates candidates on holdout TCO savings and publishes
	// survivors to the registry (hot-swapping subscribed servers).
	OnlineLearner = online.Learner
	// OnlineConfig tunes the continuous-learning loop.
	OnlineConfig = online.Config
	// OnlineWindowConfig bounds the learner's sliding feedback window.
	OnlineWindowConfig = online.WindowConfig
	// OnlineEvent reports one retrain attempt (gate verdict, shadow
	// scores, published version).
	OnlineEvent = online.Event
	// OnlineTrainer overrides the retrain function — the BYOM premise
	// applied to the retrain path.
	OnlineTrainer = online.Trainer
	// OnlineStats is a snapshot of the learner's loop counters.
	OnlineStats = online.Stats

	// FleetConfig controls a multi-cluster fleet run: the heterogeneous
	// cluster specs' seed, training options and the optional
	// per-cluster online loop. Cluster 0 is the transfer regime's donor.
	FleetConfig = fleet.Config
	// FleetTraceConfig seeds the heterogeneous cluster specs.
	FleetTraceConfig = trace.FleetConfig
	// FleetReport is the merged fleet view: per-cluster rows plus
	// fleet-aggregate TCO savings per model regime.
	FleetReport = fleet.Report
	// FleetClusterResult is one cluster's row in the report.
	FleetClusterResult = fleet.ClusterResult

	// Daemon is the network-facing placement service: the serving
	// layer behind JSON over HTTP and binary frames on /v1/stream
	// sessions, with per-endpoint admission control, graceful drain and
	// a /healthz + /varz + /tracez ops plane.
	Daemon = rpc.Daemon
	// DaemonConfig tunes the daemon (serving core, in-flight limits,
	// queue deadline, batch/body caps, optional attached learner).
	DaemonConfig = rpc.Config
	// Client speaks the wire protocol to one daemon with connection
	// reuse, per-request deadlines and bounded retries on sheds.
	Client = rpc.Client
	// ClientConfig tunes a placement client.
	ClientConfig = rpc.ClientConfig
	// ClientStats counts a client's request outcomes (sheds, retries).
	ClientStats = rpc.ClientStats
	// StreamSession is one persistent binary placement stream: a
	// single upgraded connection carrying pre-binned place frames both
	// ways. Open one per submitting goroutine with OpenStream.
	StreamSession = rpc.StreamSession
	// RPCStats is a snapshot of the daemon's request counters.
	RPCStats = rpc.DaemonStats

	// ModelReplicator mirrors one source workload's publish/rollback
	// history into follower registries — the control plane that keeps
	// every node of a placement plane serving the same model version.
	ModelReplicator = router.Replicator
	// ReplicatorStats counts a replicator's publish/rollback fan-out.
	ReplicatorStats = router.ReplicatorStats
	// WireDecision is one placement verdict as it crosses the wire.
	WireDecision = wire.Decision
	// WireModelInfo is the daemon's active-model metadata payload.
	WireModelInfo = wire.ModelInfo
)

// FullResidency is the PartialOutcome of a job that kept its SSD
// allocation for its whole lifetime with the given byte fraction.
func FullResidency(fracOnSSD float64) PartialOutcome {
	return cost.PartialOutcome{FracOnSSD: fracOnSSD, ResidencyFrac: 1}
}

// DefaultCostModel returns the calibrated warehouse-scale cost model.
func DefaultCostModel() *CostModel { return cost.Default() }

// DefaultTrainOptions mirrors the paper's model setup (15 categories,
// depth-6 gradient boosted trees).
func DefaultTrainOptions() TrainOptions { return core.DefaultTrainOptions() }

// TrainCategoryModel trains a workload's category model on historical
// jobs: it fits the density-quantile label design, builds metadata
// vocabularies and trains the pointwise ranking classifier.
func TrainCategoryModel(train []*Job, cm *CostModel, opts TrainOptions) (*CategoryModel, error) {
	return core.TrainCategoryModel(train, cm, opts)
}

// LoadCategoryModelFile reads a model bundle saved with
// (*CategoryModel).SaveFile.
func LoadCategoryModelFile(path string) (*CategoryModel, error) {
	return core.LoadCategoryModelFile(path)
}

// NewAdaptiveRankingPolicy wires a trained category model to a fresh
// Algorithm 1 controller: the paper's placement method.
func NewAdaptiveRankingPolicy(model *CategoryModel, cm *CostModel) (Policy, error) {
	return policy.NewAdaptiveRanking(model, cm, core.DefaultAdaptiveConfig(model.NumCategories()))
}

// NewFirstFitPolicy returns the static FirstFit baseline (§3.2).
func NewFirstFitPolicy() Policy { return policy.FirstFit{} }

// DefaultServeConfig returns the serving parameters for an N-category
// model: the default Algorithm 1 controller. The server always runs 8
// serving queues, and each one's worker batches what the queue holds.
func DefaultServeConfig(numCategories int) ServeConfig {
	return serve.DefaultConfig(numCategories)
}

// NewModelRegistry creates an in-memory model registry. Use
// (*ModelRegistry).Publish to roll out new versions; servers created
// with NewServerFromRegistry pick them up atomically under load.
func NewModelRegistry() *ModelRegistry { return registry.New() }

// NewServerFromRegistry starts a placement server that resolves and
// tracks the workload's active model version in reg: every Publish or
// Rollback swaps the compiled model atomically without pausing traffic.
func NewServerFromRegistry(reg *ModelRegistry, workload string, cm *CostModel, cfg ServeConfig) (*Server, error) {
	return serve.New(reg, workload, cm, cfg)
}

// DefaultDaemonConfig returns placement-daemon parameters for an
// N-category model: the serving defaults plus 64 in-flight placement
// requests, 256 in-flight feedback posts and a 5 ms queue deadline.
func DefaultDaemonConfig(numCategories int) DaemonConfig {
	return rpc.DefaultConfig(numCategories)
}

// NewDaemon builds the placement daemon serving the workload's active
// model from reg over the wire protocol (POST /v1/place, POST
// /v1/outcome, GET /v1/model, the /v1/stream frame sessions, /healthz,
// /varz, /tracez).
// Start it with (*Daemon).Start and stop it with (*Daemon).Shutdown;
// registry publishes hot-swap the model under live network load.
func NewDaemon(reg *ModelRegistry, workload string, cm *CostModel, cfg DaemonConfig) (*Daemon, error) {
	return rpc.NewDaemon(reg, workload, cm, cfg)
}

// DefaultClientConfig returns client parameters for a daemon at
// baseURL: 2 s deadlines and 3 shed retries with doubling backoff.
func DefaultClientConfig(baseURL string) ClientConfig {
	return rpc.DefaultClientConfig(baseURL)
}

// NewClient builds a placement client for the daemon at cfg.BaseURL.
// One Client is meant to be shared by many goroutines; it reuses
// connections, applies per-request deadlines and absorbs shed (429)
// responses with bounded retries. Set cfg.Codec to CodecBinary for the
// binary wire codec with client-side feature extraction and
// pre-binning, sent as frames on stream sessions the client keeps
// pooled (JSON against daemons that don't speak it; needs an http://
// BaseURL); (*Client).OpenStream hands the caller a session of its own.
func NewClient(cfg ClientConfig) (*Client, error) {
	return rpc.NewClient(cfg)
}

// NewModelReplicator follows workload in src and mirrors every publish
// and rollback into registries attached with (*ModelReplicator).Attach
// — newly attached followers (e.g. a restarted node's fresh registry)
// first replay the history they missed, with version numbers aligned
// to the source. Close it to stop following.
func NewModelReplicator(src *ModelRegistry, workload string) *ModelReplicator {
	return router.NewReplicator(src, workload)
}

// Place codecs for ClientConfig.Codec.
const (
	// CodecJSON is the JSON request/response codec (the default).
	CodecJSON = rpc.CodecJSON
	// CodecBinary is the binary frame codec: the client fetches the
	// model's bin schema once, extracts and bins features locally, and
	// ships fixed-width pre-binned rows the daemon serves with no
	// per-job feature work. Decisions are bit-identical to JSON's.
	CodecBinary = rpc.CodecBinary
)

// DefaultOnlineConfig returns continuous-learning parameters for an
// N-category model: a 3.5-day / 8192-job window, daily retrain cadence,
// a drift trigger at 0.15 total-variation shift (DriftTV) and a 500-job
// window floor for any retrain (MinRetrainJobs), where the drift
// trigger takes its first reference. The 0.5-point TCO-savings
// regression gate is fixed.
func DefaultOnlineConfig(numCategories int) OnlineConfig {
	return online.DefaultConfig(numCategories)
}

// NewOnlineLearner creates the continuous-learning pipeline for a
// workload: stream each placed job and its served category in with
// Observe once the outcome is known, and the learner retrains on fresh
// data, shadow-gates each candidate against the live model and
// publishes survivors to reg — atomically hot-swapping any server
// created with NewServerFromRegistry on the same workload.
func NewOnlineLearner(reg *ModelRegistry, workload string, cm *CostModel, cfg OnlineConfig) (*OnlineLearner, error) {
	return online.New(reg, workload, cm, cfg)
}

// RunOnlineLoop replays a trace through the full closed loop — server
// decisions, simulated SSD occupancy, outcome feedback to the server's
// controller and each job to the learner's window — so retrains, gate
// verdicts and hot swaps all happen mid-replay. Pass a nil learner to
// replay the frozen-model baseline.
func RunOnlineLoop(tr *Trace, srv *Server, learner *OnlineLearner, cm *CostModel, cfg SimConfig) (*SimResult, error) {
	return online.RunLoop(tr, online.Local(srv), learner, cm, cfg)
}

// TailSavingsPercent returns a replay's TCO savings restricted to jobs
// arriving at or after fromSec (requires SimConfig.KeepRecords) — the
// post-drift comparison the online loop is judged on.
func TailSavingsPercent(res *SimResult, cm *CostModel, fromSec float64) (float64, error) {
	return online.TailSavingsPercent(res, cm, fromSec)
}

// DefaultFleetConfig returns a laptop-scale fleet of n clusters from
// one seed: four simulated days per cluster, heterogeneous mixes,
// loads and quotas.
func DefaultFleetConfig(n int, seed int64) FleetConfig {
	return fleet.DefaultConfig(n, seed)
}

// RunFleet simulates a multi-cluster fleet end to end: per-cluster
// traces, per-cluster models trained in parallel, and each cluster's
// test half evaluated under per-cluster vs one-global vs transfer
// models — optionally with a closed online-learning loop per cluster,
// publishing its models into reg under "cluster/<id>". The report is
// bit-identical at any GOMAXPROCS.
func RunFleet(cfg FleetConfig, reg *ModelRegistry) (*FleetReport, error) {
	return fleet.Run(cfg, reg)
}

// Simulate replays a trace through a placement policy under an SSD
// quota and returns savings metrics.
func Simulate(tr *Trace, p Policy, cm *CostModel, cfg SimConfig) (*SimResult, error) {
	return sim.Run(tr, p, cm, cfg)
}

// SolveOracle computes the clairvoyant placement (Section 3.1's
// headroom oracle) for a job set under an SSD capacity.
func SolveOracle(jobs []*Job, capacity float64, cm *CostModel, cfg OracleConfig) (*OracleResult, error) {
	return oracle.Solve(jobs, capacity, cm, cfg)
}

// DefaultOracleConfig returns the oracle solver defaults.
func DefaultOracleConfig() OracleConfig { return oracle.DefaultConfig() }

// GenerateCluster produces a synthetic cluster workload trace — the
// stand-in for production traces (see docs/ARCHITECTURE.md, "Paper
// section → package correspondence").
func GenerateCluster(cfg GeneratorConfig) *Trace {
	return trace.NewGenerator(cfg).Generate()
}

// DefaultGeneratorConfig returns a medium-sized cluster workload
// configuration.
func DefaultGeneratorConfig(cluster string, seed int64) GeneratorConfig {
	return trace.DefaultGeneratorConfig(cluster, seed)
}

// ClusterConfigs builds n distinct cluster configurations with uneven
// workload mixes (cluster 3 is the pathological outlier).
func ClusterConfigs(n int, baseSeed int64) []GeneratorConfig {
	return trace.ClusterConfigs(n, baseSeed)
}

// SaveTrace / LoadTrace persist traces as JSON lines.
func SaveTrace(path string, tr *Trace) error { return trace.SaveFile(path, tr) }

// LoadTrace reads a trace written by SaveTrace.
func LoadTrace(path string) (*Trace, error) { return trace.LoadFile(path) }
