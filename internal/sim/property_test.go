package sim

import (
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/trace"
)

// randomPolicy wants SSD for a random subset of jobs (deterministic
// per job via its own RNG stream).
type randomPolicy struct {
	rng  *rand.Rand
	prob float64
}

func (randomPolicy) Name() string { return "random" }
func (p randomPolicy) Place(*trace.Job, PlaceContext) bool {
	return p.rng.Float64() < p.prob
}

// TestSimulatorInvariantsUnderRandomPolicies fuzzes the event loop:
// random traces, random policies, random quotas — core invariants must
// hold every time.
func TestSimulatorInvariantsUnderRandomPolicies(t *testing.T) {
	cm := cost.Default()
	for trial := 0; trial < 15; trial++ {
		seed := int64(100 + trial)
		rng := rand.New(rand.NewSource(seed))
		gcfg := trace.DefaultGeneratorConfig("F", seed)
		gcfg.DurationSec = 12 * 3600
		gcfg.NumUsers = 4
		tr := trace.NewGenerator(gcfg).Generate()
		if len(tr.Jobs) == 0 {
			continue
		}
		quota := tr.PeakSSDUsage() * rng.Float64() * 0.5
		p := randomPolicy{rng: rand.New(rand.NewSource(seed * 7)), prob: rng.Float64()}
		res, err := Run(tr, p, cm, Config{SSDQuota: quota, KeepRecords: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.SSDPeakUsed > quota*(1+1e-9)+1 {
			t.Fatalf("trial %d: peak %g exceeds quota %g", trial, res.SSDPeakUsed, quota)
		}
		if res.TCIOSaved < 0 || res.TCIOSaved > res.TotalTCIO*(1+1e-9) {
			t.Fatalf("trial %d: TCIO saved %g outside [0, %g]", trial, res.TCIOSaved, res.TotalTCIO)
		}
		if len(res.Records) != len(tr.Jobs) {
			t.Fatalf("trial %d: %d records for %d jobs", trial, len(res.Records), len(tr.Jobs))
		}
		var sumTCO, sumTCIO float64
		for _, r := range res.Records {
			if r.Outcome.FracOnSSD < 0 || r.Outcome.FracOnSSD > 1 {
				t.Fatalf("trial %d: frac %g", trial, r.Outcome.FracOnSSD)
			}
			if !r.Outcome.WantedSSD && r.Outcome.FracOnSSD != 0 {
				t.Fatalf("trial %d: HDD job got SSD fraction", trial)
			}
			sumTCO += r.TCOSaved
			sumTCIO += r.TCIOSaved
		}
		// Per-record savings must sum to the aggregate.
		if diff := sumTCO - res.TCOSaved; diff > 1e-9*(1+abs(res.TCOSaved)) || diff < -1e-9*(1+abs(res.TCOSaved)) {
			t.Fatalf("trial %d: record TCO sum %g != aggregate %g", trial, sumTCO, res.TCOSaved)
		}
		if diff := sumTCIO - res.TCIOSaved; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("trial %d: record TCIO sum %g != aggregate %g", trial, sumTCIO, res.TCIOSaved)
		}
	}
}

// TestSimulatorConservationRandomized checks the physical conservation
// laws over randomized configurations (quota, load scale, noise,
// eviction): bytes placed on SSD never exceed the trace's bytes, no
// job is over-placed, and occupancy stays inside the quota at every
// accounting point.
func TestSimulatorConservationRandomized(t *testing.T) {
	cm := cost.Default()
	for trial := 0; trial < 12; trial++ {
		seed := int64(9000 + trial)
		rng := rand.New(rand.NewSource(seed))
		gcfg := trace.DefaultGeneratorConfig("K", seed)
		gcfg.DurationSec = (6 + 18*rng.Float64()) * 3600
		gcfg.NumUsers = 2 + rng.Intn(5)
		gcfg.LoadScale = 0.5 + 1.5*rng.Float64()
		gcfg.NoiseScale = 0.7 + rng.Float64()
		tr := trace.NewGenerator(gcfg).Generate()
		if len(tr.Jobs) == 0 {
			continue
		}
		quota := tr.PeakSSDUsage() * rng.Float64() * 0.8
		var p Policy = randomPolicy{rng: rand.New(rand.NewSource(seed * 3)), prob: 0.3 + 0.6*rng.Float64()}
		if trial%3 == 0 {
			// Every third trial evicts early, exercising the release
			// heap's partial-residency path.
			p = evictingRandom{randomPolicy: p.(randomPolicy), after: 600 + 3600*rng.Float64()}
		}
		res, err := Run(tr, p, cm, Config{SSDQuota: quota, KeepRecords: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		var traceBytes, placedBytes float64
		for _, rec := range res.Records {
			traceBytes += rec.Job.SizeBytes
			placed := rec.Outcome.FracOnSSD * rec.Job.SizeBytes
			if placed > rec.Job.SizeBytes*(1+1e-12) {
				t.Fatalf("trial %d: job %s over-placed (%g of %g bytes)",
					trial, rec.Job.ID, placed, rec.Job.SizeBytes)
			}
			placedBytes += placed
		}
		if placedBytes > traceBytes*(1+1e-12) {
			t.Fatalf("trial %d: placed %g bytes of a %g-byte trace", trial, placedBytes, traceBytes)
		}
		if res.SSDPeakUsed > quota*(1+1e-9)+1 {
			t.Fatalf("trial %d: peak %g exceeds quota %g", trial, res.SSDPeakUsed, quota)
		}
	}
}

// evictingRandom is a random policy that also evicts after a fixed
// delay.
type evictingRandom struct {
	randomPolicy
	after float64
}

func (p evictingRandom) EvictAfter(*trace.Job) float64 { return p.after }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestSimulatorDeterminism: the same policy/trace/quota yields
// bit-identical results.
func TestSimulatorDeterminism(t *testing.T) {
	cm := cost.Default()
	gcfg := trace.DefaultGeneratorConfig("D", 55)
	gcfg.DurationSec = 12 * 3600
	gcfg.NumUsers = 4
	tr := trace.NewGenerator(gcfg).Generate()
	quota := tr.PeakSSDUsage() * 0.05
	run := func() *Result {
		res, err := Run(tr, always{}, cm, Config{SSDQuota: quota})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TCOSaved != b.TCOSaved || a.TCIOSaved != b.TCIOSaved || a.SSDPeakUsed != b.SSDPeakUsed {
		t.Error("simulation not deterministic")
	}
}

// TestEvictorZeroAndHugeDelays: EvictAfter <= 0 means no eviction and
// delays beyond the lifetime are ignored.
func TestEvictorZeroAndHugeDelays(t *testing.T) {
	cm := cost.Default()
	a := job("a", 0, 100, 1e9)
	tr := mkTrace(a)
	for _, delay := range []float64{0, -5, 1e9} {
		captured := new([]Outcome)
		res, err := Run(tr, evictingRecorder{evictAfter{delay: delay}, captured}, cm,
			Config{SSDQuota: 1e10})
		if err != nil {
			t.Fatal(err)
		}
		if (*captured)[0].EvictedAt >= 0 {
			t.Errorf("delay %g triggered eviction", delay)
		}
		want := cm.Savings(a)
		if diff := res.TCOSaved - want; diff > abs(want)*1e-9 || diff < -abs(want)*1e-9 {
			t.Errorf("delay %g: savings %g, want full %g", delay, res.TCOSaved, want)
		}
	}
}
