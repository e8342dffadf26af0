package fleet

import (
	"fmt"

	"repro/internal/online"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/sim"
)

// runOnline drives one cluster's closed online-learning loop: the
// cluster's model is published as v1 of WorkloadKey(cluster) in the
// fleet's shared registry, a server replays the test half in virtual
// time, and the learner — fed the server's own outcomes — retrains,
// shadow-gates and hot-swaps mid-replay. Shards of different
// clusters run this concurrently against the same registry; the
// per-cluster key namespace keeps their versions and subscriptions
// isolated (the §2.3 blast-radius property, fleet edition).
func runOnline(s *shard, cfg Config, reg *registry.Registry) (*OnlineResult, error) {
	workload := WorkloadKey(s.env.Cluster)
	if _, err := reg.Publish(workload, s.model, s.spec.Gen.DurationSec/2); err != nil {
		return nil, fmt.Errorf("publishing %s: %w", workload, err)
	}

	srv, err := serve.New(reg, workload, s.env.Cost, serve.DefaultConfig(s.model.NumCategories()))
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	defer srv.Close()

	ocfg := *cfg.Online
	// The loop retrains with the fleet's training options (category
	// count must match the served model) and synchronously: a retrain
	// consumes no virtual time, so the swap point — and therefore the
	// whole Report — is deterministic.
	ocfg.Train = cfg.Train
	ocfg.Async = false
	learner, err := online.New(reg, workload, s.env.Cost, ocfg)
	if err != nil {
		return nil, fmt.Errorf("creating learner: %w", err)
	}
	defer learner.Close()

	res, err := online.RunLoop(s.env.Test, online.Local(srv), learner, s.env.Cost, sim.Config{SSDQuota: s.quota})
	if err != nil {
		return nil, err
	}
	if err := learner.Close(); err != nil {
		return nil, err
	}
	return &OnlineResult{
		TCOPct:       res.TCOSavingsPercent(),
		Retrains:     learner.Stats().Retrains,
		Swaps:        srv.Swaps(),
		FinalVersion: srv.ModelVersion(),
	}, nil
}
