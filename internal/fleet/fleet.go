// Package fleet is the multi-cluster simulation layer: it scales the
// single-cluster pipeline (generate → train → simulate → serve → learn)
// to a heterogeneous fleet, which is where the paper's deployment story
// actually lives — a lightweight model is trained *per cluster* because
// "the distribution of applications is uneven among clusters", and the
// evaluation reports savings across ten clusters with very different
// mixes.
//
// A fleet run:
//
//  1. Builds N heterogeneous cluster specs (trace.FleetSpecs): uneven
//     archetype mixes, arrival/noise scales, populations and quotas,
//     all from one base seed.
//  2. Runs each cluster's shard on a bounded worker pool: generate the
//     cluster trace, split train/test, train the cluster's own model
//     on the histogram engine.
//  3. Trains one *global* model on every cluster's training half and
//     designates a *donor* cluster for transfer evaluation.
//  4. Evaluates each cluster's test half under three model regimes —
//     per-cluster, global, transfer (donor's model served elsewhere) —
//     and optionally drives the full closed online-learning loop per
//     cluster against a shared registry (workload "cluster/<id>").
//  5. Merges shard results in cluster-index order into a Report with
//     per-cluster and fleet-aggregate TCO/TCIO savings.
//
// Determinism contract (the PR 2 contract lifted to fleet scope): a
// fleet Report is bit-identical for the same Config at any Workers
// value. Every shard's pipeline is deterministic in its spec (trace
// generation is seeded, training is bit-identical at any worker count,
// simulation replays virtual time, the online loop runs synchronously
// with BatchSize-1 serving), the worker pool writes each shard's
// result to its own index, and all merging iterates in index order.
package fleet

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/online"
	"repro/internal/par"
	"repro/internal/policy"
	"repro/internal/rebalance"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config controls a fleet run.
type Config struct {
	// Fleet seeds the heterogeneous cluster specs; ignored when Specs
	// is set explicitly.
	Fleet trace.FleetConfig
	// Specs overrides the generated specs (nil = trace.FleetSpecs).
	Specs []trace.ClusterSpec
	// Workers bounds the cluster-shard worker pool (0 = GOMAXPROCS).
	// The Report is bit-identical at any value.
	Workers int
	// Train configures every model trained during the run (per-cluster,
	// global, and the online loop's retrains).
	Train core.TrainOptions
	// DonorCluster is the index whose model the transfer regime serves
	// on every cluster (the paper's train-on-A-serve-on-B question).
	DonorCluster int
	// Online, when non-nil, drives one closed online-learning loop per
	// cluster over its test half: the cluster's model is published to a
	// shared registry under "cluster/<id>", a BatchSize-1 server replays
	// the test stream and the learner retrains, gates and hot-swaps
	// mid-replay. Async is forced off: synchronous retrains keep the
	// replay deterministic.
	Online *online.Config
	// Rebalance, when non-nil, adds a fourth evaluation regime per
	// cluster: the cluster's own model wrapped with the heat-aware
	// rebalancer (internal/rebalance), replayed over the same test half
	// at the same quota. The comparison prices what the periodic
	// knapsack re-solve adds on top of write-time-only placement.
	Rebalance *rebalance.Config
	// Context, when non-nil, cancels the run between cluster shards:
	// in-flight shards drain (their servers and learners shut down
	// cleanly) and Run returns the context's error. A cancelled run
	// returns no report — partial fleets would break the determinism
	// contract.
	Context context.Context
}

// DefaultConfig returns a laptop-scale fleet: n clusters over four
// simulated days each, with training options sized like the quick
// experiment presets.
func DefaultConfig(n int, seed int64) Config {
	topts := core.DefaultTrainOptions()
	topts.GBDT.NumRounds = 12
	topts.GBDT.Seed = seed
	return Config{
		Fleet: trace.FleetConfig{
			NumClusters: n,
			BaseSeed:    seed,
			DurationSec: 4 * 24 * 3600,
			Users:       8,
		},
		Train: topts,
	}
}

// WorkloadKey is the shared-registry namespace for a cluster's online
// loop: per-cluster models live side by side in one registry without
// colliding, which is exactly the §2.3 blast-radius property — a bad
// release affects only its own cluster's key.
func WorkloadKey(cluster string) string { return "cluster/" + cluster }

// Method holds one model regime's savings on one cluster.
type Method struct {
	// TCOSaved / TCIOSaved are absolute savings vs the all-HDD
	// baseline; the Pct fields are relative to the cluster's totals.
	TCOSaved  float64
	TCIOSaved float64
	TCOPct    float64
	TCIOPct   float64
}

// OnlineResult summarizes one cluster's closed-loop replay.
type OnlineResult struct {
	// TCOPct is the replay's TCO savings with the loop active.
	TCOPct float64
	// Retrains / GateAccepts / Swaps count loop activity; FinalVersion
	// is the registry version serving when the replay ended.
	Retrains     int64
	GateAccepts  int64
	Swaps        int64
	FinalVersion int
}

// ClusterResult is one cluster's shard output.
type ClusterResult struct {
	Cluster    string
	Jobs       int // full trace size
	TestJobs   int
	QuotaFrac  float64
	QuotaBytes float64
	// TotalTCOHDD / TotalTCIO are the all-HDD baselines of the test
	// half — the denominators the aggregate view reuses.
	TotalTCOHDD float64
	TotalTCIO   float64
	PerCluster  Method
	Global      Method
	Transfer    Method
	Online      *OnlineResult
	// Rebalance is set when Config.Rebalance enabled the fourth regime:
	// the per-cluster model plus the heat-aware rebalancer.
	Rebalance *RebalanceResult
}

// RebalanceResult summarizes one cluster's rebalance-regime replay.
type RebalanceResult struct {
	Method
	// Solves / Demotions / Evictions count the rebalancer's activity
	// over the replay.
	Solves    int64
	Demotions int64
	Evictions int64
}

// Report is the merged fleet view.
type Report struct {
	Clusters []ClusterResult
	// Aggregate savings are fleet-wide sums over cluster test halves
	// (sum of saved over sum of baseline), not means of percentages —
	// big clusters weigh more, as they do in a real TCO bill.
	PerClusterAggTCOPct float64
	GlobalAggTCOPct     float64
	TransferAggTCOPct   float64
	OnlineAggTCOPct     float64 // 0 when the loop was off
	RebalanceAggTCOPct  float64 // 0 when the rebalance regime was off
	TotalTestJobs       int
	Counters            Stats
}

// Stats sums a fleet run's activity over its clusters, in /varz order
// (obs.WriteVars).
type Stats struct {
	ClustersDone int64 `varz:"clusters_done"`
	// JobsSimulated counts replayed jobs: each cluster's test half once
	// per regime, plus the online loop's replay.
	JobsSimulated int64 `varz:"jobs_simulated"`
	// ModelsTrained counts the per-cluster models and the global one;
	// the online loop's retrains are OnlineRetrains.
	ModelsTrained      int64 `varz:"models_trained"`
	OnlineSwaps        int64 `varz:"online_swaps"`
	OnlineRetrains     int64 `varz:"online_retrains"`
	RebalanceSolves    int64 `varz:"rebalance_solves"`
	RebalanceDemotions int64 `varz:"rebalance_demotions"`
	RebalanceEvictions int64 `varz:"rebalance_evictions"`
}

// clusterEnv is one shard's intermediate state between the build and
// evaluate phases.
type clusterEnv struct {
	spec  trace.ClusterSpec
	train *trace.Trace
	test  *trace.Trace
	quota float64
	model *core.CategoryModel
}

// Run executes a fleet run with a private registry for the online
// loops. See RunInto to share or inspect the registry.
func Run(cfg Config) (*Report, error) {
	return RunInto(cfg, registry.New())
}

// RunInto executes a fleet run, publishing each cluster's
// online-loop models (when Config.Online is set) into reg under
// WorkloadKey(cluster).
func RunInto(cfg Config, reg *registry.Registry) (*Report, error) {
	specs, err := fleetSpecs(cfg)
	if err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("fleet: no cluster specs")
	}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, fmt.Errorf("fleet: spec %d: %w", i, err)
		}
	}
	if cfg.DonorCluster < 0 || cfg.DonorCluster >= len(specs) {
		return nil, fmt.Errorf("fleet: donor cluster %d out of range [0, %d)", cfg.DonorCluster, len(specs))
	}
	if reg == nil {
		return nil, fmt.Errorf("fleet: nil registry")
	}
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	cm := cost.Default()

	// Phase 1: per-cluster build shards — generate, split, train.
	envs := make([]*clusterEnv, len(specs))
	err = par.Each(len(specs), cfg.Workers, func(i int) error {
		// Cancellation lands between shards: a shard that started
		// finishes (its servers/learners tear down inside), later
		// shards never start, and the pool drains its workers.
		if err := ctx.Err(); err != nil {
			return err
		}
		env, err := buildEnv(specs[i], cm, cfg.Train)
		if err != nil {
			return fmt.Errorf("fleet: cluster %s: %w", specs[i].Gen.Cluster, err)
		}
		envs[i] = env
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: the global model — one model for the whole fleet,
	// trained on every cluster's training half (merged in cluster
	// order, then time-sorted). This is the "don't bother with
	// per-cluster models" strawman the comparison prices.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	merged := &trace.Trace{Cluster: "fleet-global"}
	for _, env := range envs {
		merged.Jobs = append(merged.Jobs, env.train.Jobs...)
	}
	merged.Sort()
	global, err := core.TrainCategoryModel(merged.Jobs, cm, cfg.Train)
	if err != nil {
		return nil, fmt.Errorf("fleet: training global model: %w", err)
	}
	donor := envs[cfg.DonorCluster].model

	// Phase 3: per-cluster evaluation shards.
	results := make([]ClusterResult, len(specs))
	err = par.Each(len(specs), cfg.Workers, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := evalCluster(envs[i], cm, cfg, reg, global, donor)
		if err != nil {
			return fmt.Errorf("fleet: cluster %s: %w", envs[i].spec.Gen.Cluster, err)
		}
		results[i] = *res
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 4: deterministic merge in cluster-index order.
	rep := &Report{Clusters: results}
	rep.Counters.ClustersDone = int64(len(results))
	rep.Counters.ModelsTrained = int64(len(specs) + 1)
	var hdd, perC, glob, transf, onl, reb float64
	onlineOn := cfg.Online != nil
	rebalanceOn := cfg.Rebalance != nil
	for i := range results {
		r := &results[i]
		rep.TotalTestJobs += r.TestJobs
		hdd += r.TotalTCOHDD
		perC += r.PerCluster.TCOSaved
		glob += r.Global.TCOSaved
		transf += r.Transfer.TCOSaved
		replays := int64(3) // per-cluster, global, transfer
		if r.Online != nil {
			onl += r.Online.TCOPct / 100 * r.TotalTCOHDD
			replays++
			rep.Counters.OnlineSwaps += r.Online.Swaps
			rep.Counters.OnlineRetrains += r.Online.Retrains
		}
		if r.Rebalance != nil {
			reb += r.Rebalance.TCOSaved
			replays++
			rep.Counters.RebalanceSolves += r.Rebalance.Solves
			rep.Counters.RebalanceDemotions += r.Rebalance.Demotions
			rep.Counters.RebalanceEvictions += r.Rebalance.Evictions
		}
		rep.Counters.JobsSimulated += replays * int64(r.TestJobs)
	}
	if hdd > 0 {
		rep.PerClusterAggTCOPct = 100 * perC / hdd
		rep.GlobalAggTCOPct = 100 * glob / hdd
		rep.TransferAggTCOPct = 100 * transf / hdd
		if onlineOn {
			rep.OnlineAggTCOPct = 100 * onl / hdd
		}
		if rebalanceOn {
			rep.RebalanceAggTCOPct = 100 * reb / hdd
		}
	}
	return rep, nil
}

// fleetSpecs resolves the run's cluster specs (explicit or generated).
func fleetSpecs(cfg Config) ([]trace.ClusterSpec, error) {
	if cfg.Specs != nil {
		return cfg.Specs, nil
	}
	return trace.FleetSpecs(cfg.Fleet)
}

// buildEnv runs one cluster's build shard: generate the trace, split
// train/test halves (the paper's contiguous-window split), size the
// quota off the test half's peak and train the cluster's own model.
func buildEnv(spec trace.ClusterSpec, cm *cost.Model, topts core.TrainOptions) (*clusterEnv, error) {
	full := trace.NewGenerator(spec.Gen).Generate()
	train, test := full.SplitAt(spec.Gen.DurationSec / 2)
	if len(train.Jobs) == 0 || len(test.Jobs) == 0 {
		return nil, fmt.Errorf("empty train/test split (%d/%d jobs)", len(train.Jobs), len(test.Jobs))
	}
	model, err := core.TrainCategoryModel(train.Jobs, cm, topts)
	if err != nil {
		return nil, fmt.Errorf("training cluster model: %w", err)
	}
	return &clusterEnv{
		spec:  spec,
		train: train,
		test:  test,
		quota: test.PeakSSDUsage() * spec.QuotaFrac,
		model: model,
	}, nil
}

// evalCluster runs one cluster's evaluation shard: the three model
// regimes on the test half, plus the optional online loop.
func evalCluster(env *clusterEnv, cm *cost.Model, cfg Config, reg *registry.Registry,
	global, donor *core.CategoryModel) (*ClusterResult, error) {
	res := &ClusterResult{
		Cluster:    env.spec.Gen.Cluster,
		Jobs:       len(env.train.Jobs) + len(env.test.Jobs),
		TestJobs:   len(env.test.Jobs),
		QuotaFrac:  env.spec.QuotaFrac,
		QuotaBytes: env.quota,
	}
	for _, m := range []struct {
		model *core.CategoryModel
		out   *Method
	}{
		{env.model, &res.PerCluster},
		{global, &res.Global},
		{donor, &res.Transfer},
	} {
		r, err := evalModel(env, m.model, cm)
		if err != nil {
			return nil, err
		}
		res.TotalTCOHDD = r.TotalTCOHDD
		res.TotalTCIO = r.TotalTCIO
		*m.out = Method{
			TCOSaved:  r.TCOSaved,
			TCIOSaved: r.TCIOSaved,
			TCOPct:    r.TCOSavingsPercent(),
			TCIOPct:   r.TCIOSavingsPercent(),
		}
	}
	if cfg.Rebalance != nil {
		rr, err := evalRebalance(env, cm, *cfg.Rebalance)
		if err != nil {
			return nil, err
		}
		res.Rebalance = rr
	}
	if cfg.Online != nil {
		or, err := runOnline(env, cm, cfg, reg)
		if err != nil {
			return nil, err
		}
		res.Online = or
	}
	return res, nil
}

// evalModel replays the cluster's test half under one model with a
// fresh Algorithm 1 controller at the cluster's quota.
func evalModel(env *clusterEnv, model *core.CategoryModel, cm *cost.Model) (*sim.Result, error) {
	p, err := policy.NewAdaptiveRanking(model, cm, core.DefaultAdaptiveConfig(model.NumCategories()))
	if err != nil {
		return nil, err
	}
	return sim.Run(env.test, p, cm, sim.Config{SSDQuota: env.quota})
}

// evalRebalance replays the cluster's test half under the per-cluster
// model wrapped with the heat-aware rebalancer — the fourth regime. The
// wrapped policy is built fresh per call and used sequentially, so the
// replay is bit-deterministic regardless of the pool's worker count.
func evalRebalance(env *clusterEnv, cm *cost.Model, rcfg rebalance.Config) (*RebalanceResult, error) {
	p, err := policy.NewAdaptiveRanking(env.model, cm, core.DefaultAdaptiveConfig(env.model.NumCategories()))
	if err != nil {
		return nil, err
	}
	reb := rebalance.New(p, cm, rcfg)
	r, err := sim.Run(env.test, reb, cm, sim.Config{SSDQuota: env.quota})
	if err != nil {
		return nil, err
	}
	s := reb.Stats()
	return &RebalanceResult{
		Method: Method{
			TCOSaved:  r.TCOSaved,
			TCIOSaved: r.TCIOSaved,
			TCOPct:    r.TCOSavingsPercent(),
			TCIOPct:   r.TCIOSavingsPercent(),
		},
		Solves:    s.Solves,
		Demotions: s.Demotions,
		Evictions: s.Evictions,
	}, nil
}
