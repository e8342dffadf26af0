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
//  2. Builds each cluster's shard on the worker pool: an
//     experiments.Env (generate, split train/test, price) and the
//     cluster's own model trained on its training half.
//  3. Trains one *global* model on every cluster's training half and
//     takes cluster Donor as the *donor* for transfer evaluation.
//  4. Replays each cluster's test half under three model regimes —
//     per-cluster, global, transfer (donor's model served elsewhere) —
//     through Env.RunSuite, and optionally drives the full closed
//     online-learning loop per cluster against a shared registry
//     (workload "cluster/<id>").
//  5. Merges shard results in cluster-index order into a Report with
//     per-cluster and fleet-aggregate TCO/TCIO savings.
//
// Determinism contract (the PR 2 contract lifted to fleet scope): a
// fleet Report is bit-identical for the same Config at any GOMAXPROCS.
// Every shard's pipeline is deterministic in its spec (trace generation
// is seeded, training is bit-identical at any worker count, simulation
// replays virtual time, the online loop replays sequentially and
// retrains synchronously), the worker pool writes each shard's result to
// its own index, and all merging iterates in index order.
package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/online"
	"repro/internal/par"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/trace"
)

// Donor is the cluster whose model the transfer regime serves on every
// cluster (the paper's train-on-A-serve-on-B question).
const Donor = 0

// Config controls a fleet run.
type Config struct {
	// Fleet seeds the heterogeneous cluster specs.
	Fleet trace.FleetConfig
	// Train configures every model trained during the run (per-cluster,
	// global, and the online loop's retrains).
	Train core.TrainOptions
	// Online, when non-nil, drives one closed online-learning loop per
	// cluster over its test half: the cluster's model is published to a
	// shared registry under "cluster/<id>", a server replays
	// the test stream and the learner retrains, gates and hot-swaps
	// mid-replay. Async is forced off: synchronous retrains keep the
	// replay deterministic.
	Online *online.Config
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
	// baseline; TCOPct is relative to the cluster's total.
	TCOSaved  float64
	TCIOSaved float64
	TCOPct    float64
}

// OnlineResult summarizes one cluster's closed-loop replay.
type OnlineResult struct {
	// TCOPct is the replay's TCO savings with the loop active.
	TCOPct float64
	// Retrains / Swaps count loop activity; FinalVersion is the
	// registry version serving when the replay ended.
	Retrains     int64
	Swaps        int64
	FinalVersion int
}

// ClusterResult is one cluster's shard output.
type ClusterResult struct {
	Cluster   string
	TestJobs  int
	QuotaFrac float64
	// TotalTCOHDD / TotalTCIO are the all-HDD baselines of the test
	// half — the denominators the aggregate view reuses.
	TotalTCOHDD float64
	TotalTCIO   float64
	PerCluster  Method
	Global      Method
	Transfer    Method
	Online      *OnlineResult
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
	TotalTestJobs       int
}

// shard is one cluster between the build and evaluate phases: its
// environment, spec, SSD quota in bytes and own model.
type shard struct {
	env   *experiments.Env
	spec  trace.ClusterSpec
	quota float64
	model *core.CategoryModel
}

// Run executes a fleet run, publishing each cluster's online-loop
// models (when Config.Online is set) into reg under
// WorkloadKey(cluster).
func Run(cfg Config, reg *registry.Registry) (*Report, error) {
	specs, err := trace.FleetSpecs(cfg.Fleet)
	if err != nil {
		return nil, err
	}
	if reg == nil {
		return nil, fmt.Errorf("fleet: nil registry")
	}

	// Phase 1: per-cluster build shards — generate, split, train. The
	// split is the paper's contiguous-window one, and the quota is sized
	// off the test half's peak.
	shards := make([]*shard, len(specs))
	err = par.Each(len(specs), 0, func(i int) error {
		env := experiments.NewEnv(specs[i].Gen)
		if len(env.Train.Jobs) == 0 || len(env.Test.Jobs) == 0 {
			return fmt.Errorf("fleet: cluster %s: empty train/test split (%d/%d jobs)", env.Cluster, len(env.Train.Jobs), len(env.Test.Jobs))
		}
		model, err := core.TrainCategoryModel(env.Train.Jobs, env.Cost, cfg.Train)
		if err != nil {
			return fmt.Errorf("fleet: cluster %s: training cluster model: %w", env.Cluster, err)
		}
		shards[i] = &shard{env: env, spec: specs[i], quota: env.PeakUsage * specs[i].QuotaFrac, model: model}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: the global model — one model for the whole fleet,
	// trained on every cluster's training half (merged in cluster
	// order, then time-sorted). This is the "don't bother with
	// per-cluster models" strawman the comparison prices.
	merged := &trace.Trace{Cluster: "fleet-global"}
	for _, s := range shards {
		merged.Jobs = append(merged.Jobs, s.env.Train.Jobs...)
	}
	merged.Sort()
	global, err := core.TrainCategoryModel(merged.Jobs, shards[0].env.Cost, cfg.Train)
	if err != nil {
		return nil, fmt.Errorf("fleet: training global model: %w", err)
	}
	donor := shards[Donor].model

	// Phase 3: per-cluster evaluation shards.
	results := make([]ClusterResult, len(specs))
	err = par.Each(len(specs), 0, func(i int) error {
		res, err := evalCluster(shards[i], cfg, reg, global, donor)
		if err != nil {
			return fmt.Errorf("fleet: cluster %s: %w", shards[i].env.Cluster, err)
		}
		results[i] = *res
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 4: deterministic merge in cluster-index order.
	rep := &Report{Clusters: results}
	var hdd, perC, glob, transf, onl float64
	for i := range results {
		r := &results[i]
		rep.TotalTestJobs += r.TestJobs
		hdd += r.TotalTCOHDD
		perC += r.PerCluster.TCOSaved
		glob += r.Global.TCOSaved
		transf += r.Transfer.TCOSaved
		if r.Online != nil {
			onl += r.Online.TCOPct / 100 * r.TotalTCOHDD
		}
	}
	if hdd > 0 {
		rep.PerClusterAggTCOPct = 100 * perC / hdd
		rep.GlobalAggTCOPct = 100 * glob / hdd
		rep.TransferAggTCOPct = 100 * transf / hdd
		if cfg.Online != nil {
			rep.OnlineAggTCOPct = 100 * onl / hdd
		}
	}
	return rep, nil
}

// evalCluster runs one cluster's evaluation shard: the three model
// regimes on the test half, each with a fresh Algorithm 1 controller at
// the cluster's quota, plus the optional online loop.
func evalCluster(s *shard, cfg Config, reg *registry.Registry, global, donor *core.CategoryModel) (*ClusterResult, error) {
	res := &ClusterResult{
		Cluster:   s.env.Cluster,
		TestJobs:  len(s.env.Test.Jobs),
		QuotaFrac: s.spec.QuotaFrac,
	}
	for _, m := range []struct {
		model *core.CategoryModel
		out   *Method
	}{
		{s.model, &res.PerCluster},
		{global, &res.Global},
		{donor, &res.Transfer},
	} {
		suite, err := s.env.RunSuite(s.quota, experiments.SuiteConfig{
			Methods: []string{policy.NameAdaptiveRanking},
			Model:   m.model,
		})
		if err != nil {
			return nil, err
		}
		r := suite[policy.NameAdaptiveRanking]
		res.TotalTCOHDD = r.TotalTCOHDD
		res.TotalTCIO = r.TotalTCIO
		*m.out = Method{TCOSaved: r.TCOSaved, TCIOSaved: r.TCIOSaved, TCOPct: r.TCOSavingsPercent()}
	}
	if cfg.Online != nil {
		or, err := runOnline(s, cfg, reg)
		if err != nil {
			return nil, err
		}
		res.Online = or
	}
	return res, nil
}
