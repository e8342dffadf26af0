package fleet

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestFleetWorkersDeterminism is the fleet determinism contract: the
// same Config yields a bit-identical Report (struct and rendered text)
// at any GOMAXPROCS, online loops included — even though shards of
// different clusters then run concurrently against one shared
// registry. Run under -race in CI, this doubles as the fleet e2e data
// race check.
func TestFleetWorkersDeterminism(t *testing.T) {
	if testing.Short() {
		// Three full fleet runs with online loops; the dedicated
		// race-enabled fleet-e2e CI job runs this without -short.
		t.Skip("skipping 3-run fleet determinism matrix in short mode")
	}
	baseline := fleetAtProcs(t, 1)
	baseRender := renderReport(baseline)
	for _, procs := range []int{2, 8} {
		rep := fleetAtProcs(t, procs)
		if !reflect.DeepEqual(stripLatency(baseline), stripLatency(rep)) {
			t.Fatalf("GOMAXPROCS=%d report differs from GOMAXPROCS=1", procs)
		}
		if got := renderReport(rep); !bytes.Equal(baseRender, got) {
			t.Fatalf("GOMAXPROCS=%d rendered report differs from GOMAXPROCS=1:\n--- p1\n%s\n--- p%d\n%s",
				procs, baseRender, procs, got)
		}
	}
}

// fleetAtProcs runs the online test fleet with the worker pool sized by
// GOMAXPROCS=procs, restoring the previous setting afterwards.
func fleetAtProcs(t *testing.T, procs int) *Report {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	cfg := testConfig(t)
	cfg.Online = testOnlineConfig()
	rep, err := Run(cfg, registry.New())
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
	}
	return rep
}

func renderReport(r *Report) []byte {
	var buf bytes.Buffer
	r.Render(&buf)
	return buf.Bytes()
}

// stripLatency zeroes nothing today — every Report field is virtual-
// time or count based — but keeps the comparison honest if wall-clock
// fields are ever added: extend it rather than weakening the test.
func stripLatency(r *Report) *Report { return r }

// TestFleetPerClusterMatchesStandalone: a cluster inside a fleet run
// reports exactly the savings the same spec produces when built and
// replayed standalone — an Algorithm 1 ranking policy under sim.Run on
// the cluster's own environment — so fleet membership (shared pools,
// shared registry, the other clusters' shards) must not perturb a
// cluster's own numbers.
func TestFleetPerClusterMatchesStandalone(t *testing.T) {
	cfg := testConfig(t)
	rep, err := Run(cfg, registry.New())
	if err != nil {
		t.Fatal(err)
	}
	specs, err := trace.FleetSpecs(cfg.Fleet)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range rep.Clusters {
		env := experiments.NewEnv(specs[i].Gen)
		model, err := core.TrainCategoryModel(env.Train.Jobs, env.Cost, cfg.Train)
		if err != nil {
			t.Fatalf("standalone %s: %v", c.Cluster, err)
		}
		ranking, err := policy.NewAdaptiveRanking(model, env.Cost, core.DefaultAdaptiveConfig(model.NumCategories()))
		if err != nil {
			t.Fatalf("standalone %s: %v", c.Cluster, err)
		}
		res, err := sim.Run(env.Test, ranking, env.Cost, sim.Config{SSDQuota: env.PeakUsage * specs[i].QuotaFrac})
		if err != nil {
			t.Fatalf("standalone %s: %v", c.Cluster, err)
		}
		if got, want := c.PerCluster.TCOSaved, res.TCOSaved; got != want {
			t.Errorf("%s: fleet TCO saved %g != standalone %g", c.Cluster, got, want)
		}
		if got, want := c.PerCluster.TCIOSaved, res.TCIOSaved; got != want {
			t.Errorf("%s: fleet TCIO saved %g != standalone %g", c.Cluster, got, want)
		}
		if got, want := c.TotalTCOHDD, res.TotalTCOHDD; got != want {
			t.Errorf("%s: fleet all-HDD TCO %g != standalone %g", c.Cluster, got, want)
		}
		if got, want := c.TestJobs, len(env.Test.Jobs); got != want {
			t.Errorf("%s: fleet test jobs %d != standalone %d", c.Cluster, got, want)
		}
	}
}
