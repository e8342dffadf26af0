package trace

import (
	"fmt"
	"math/rand"
)

// FleetConfig seeds a heterogeneous multi-cluster fleet. The paper's
// deployment story is fleet-level: models are trained per cluster
// because "the distribution of applications is uneven among clusters",
// and the evaluation reports results across ten clusters with very
// different mixes. FleetSpecs extends ClusterConfigs with the remaining
// axes of heterogeneity a fleet simulation needs — arrival scale,
// noise, population size and SSD quota — all drawn from one base seed
// so a fleet is fully reproducible from (NumClusters, BaseSeed).
type FleetConfig struct {
	// NumClusters is the fleet size.
	NumClusters int
	// BaseSeed drives every cluster's generator and the per-cluster
	// heterogeneity draws.
	BaseSeed int64
	// DurationSec is the trace length per cluster (0 = the
	// DefaultGeneratorConfig two-week window).
	DurationSec float64
	// Users is the base user population per cluster before the
	// per-cluster jitter (0 = the default 12).
	Users int
}

// ClusterSpec is one cluster's generation parameters plus the
// placement-relevant knob the fleet simulator consumes directly: the
// SSD quota, expressed — exactly as the paper's sweeps do — as a
// fraction of the cluster's own peak SSD usage.
type ClusterSpec struct {
	Gen GeneratorConfig
	// QuotaFrac is the cluster's SSD quota as a fraction of the peak
	// simultaneous footprint of its evaluation trace.
	QuotaFrac float64
}

// FleetSpecs builds NumClusters heterogeneous cluster specs: uneven
// archetype mixes (via the ClusterConfigs weight draws, including the
// pathological mltrain-only cluster at index 3 when the fleet is large
// enough), per-cluster arrival scales, noise scales, user populations
// and SSD quotas. Deterministic in the config.
func FleetSpecs(fc FleetConfig) ([]ClusterSpec, error) {
	if fc.NumClusters < 1 {
		return nil, fmt.Errorf("trace: fleet needs >= 1 cluster, got %d", fc.NumClusters)
	}
	cfgs := ClusterConfigs(fc.NumClusters, fc.BaseSeed)
	specs := make([]ClusterSpec, fc.NumClusters)
	for i, cfg := range cfgs {
		// A separate stream from the generator's own seed, so adding
		// heterogeneity axes never perturbs the generated jobs of a
		// cluster that opts out of them.
		rng := rand.New(rand.NewSource(cfg.Seed ^ 0xf1ee7))
		if fc.DurationSec > 0 {
			cfg.DurationSec = fc.DurationSec
		}
		if fc.Users > 0 {
			cfg.NumUsers = fc.Users
		}
		// Population jitter: ±1/3 of the base, at least 2 users.
		jitter := cfg.NumUsers / 3
		if jitter > 0 {
			cfg.NumUsers += rng.Intn(2*jitter+1) - jitter
		}
		if cfg.NumUsers < 2 {
			cfg.NumUsers = 2
		}
		// Arrival scale in [0.6, 1.8): some clusters run far hotter
		// than others, which is what makes one global quota-tuning
		// impossible and per-cluster models worth their keep.
		cfg.LoadScale = 0.6 + 1.2*rng.Float64()
		// Noise scale in [0.8, 1.3): per-cluster learnability spread.
		cfg.NoiseScale = 0.8 + 0.5*rng.Float64()
		specs[i] = ClusterSpec{
			Gen: cfg,
			// Quota in [2%, 12%) of peak — the steep region of the
			// paper's savings-vs-quota curves.
			QuotaFrac: 0.02 + 0.1*rng.Float64(),
		}
	}
	return specs, nil
}
