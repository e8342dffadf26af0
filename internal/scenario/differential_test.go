package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/sim"
)

// TestServeMatchesSim is the sim↔serve leg of the whole-scenario
// differential: on every checked-in scenario's trace and model, the
// served replay decides every job as the simulator's Algorithm 1 ranking
// policy does, and lands on bit-equal TCO and TCIO, at one shard and at
// the default shard count alike. The shard count is a throughput
// setting; a decision that moved with it would fail here.
func TestServeMatchesSim(t *testing.T) {
	pkgs, err := Discover(repoScenarios)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		spec := pkg.Spec
		if spec.Trace == nil || (testing.Short() && !shortSubset.MatchString(pkg.Name)) {
			continue // a fleet spec generates its clusters' traces itself
		}
		t.Run(pkg.Name, func(t *testing.T) {
			e, err := buildEnv(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.Config{SSDQuota: e.quota, KeepRecords: true}
			ranking, err := policy.NewAdaptiveRanking(e.model, e.cm, core.DefaultAdaptiveConfig(e.model.NumCategories()))
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.Run(e.test, ranking, e.cm, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Records) != len(e.test.Jobs) {
				t.Fatalf("sim kept %d records of %d jobs", len(want.Records), len(e.test.Jobs))
			}
			for _, shards := range []int{1, serve.DefaultConfig(0).Shards} {
				reg := registry.New()
				if _, err := reg.Publish(spec.Name, e.model, 0); err != nil {
					t.Fatal(err)
				}
				scfg := serve.DefaultConfig(e.model.NumCategories())
				scfg.Shards, scfg.BatchSize = shards, 1
				srv, err := serve.New(reg, spec.Name, e.cm, scfg)
				if err != nil {
					t.Fatal(err)
				}
				lp := &serveLoop{srv: srv}
				got, err := sim.Run(e.test, lp, e.cm, cfg)
				srv.Close()
				if err != nil {
					t.Fatal(err)
				}
				if lp.err != nil {
					t.Fatalf("shards %d: serve replay: %v", shards, lp.err)
				}
				if len(got.Records) != len(want.Records) {
					t.Fatalf("shards %d: serve replay kept %d records, sim %d", shards, len(got.Records), len(want.Records))
				}
				gotWanted, wantWanted, first := 0, 0, -1
				for i := range want.Records {
					g, w := got.Records[i].Outcome.WantedSSD, want.Records[i].Outcome.WantedSSD
					if g {
						gotWanted++
					}
					if w {
						wantWanted++
					}
					if g != w && first < 0 {
						first = i
					}
				}
				if first >= 0 {
					t.Errorf("shards %d: serve admits %d of %d jobs, sim %d; first differing job %d",
						shards, gotWanted, len(want.Records), wantWanted, first)
				}
				if got.TCOSavingsPercent() != want.TCOSavingsPercent() || got.TCIOSavingsPercent() != want.TCIOSavingsPercent() {
					t.Errorf("shards %d: serve TCO %v%% TCIO %v%%, sim %v%% %v%%", shards,
						got.TCOSavingsPercent(), got.TCIOSavingsPercent(), want.TCOSavingsPercent(), want.TCIOSavingsPercent())
				}
			}
		})
	}
}
