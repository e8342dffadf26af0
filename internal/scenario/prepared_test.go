package scenario

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/rebalance"
	"repro/internal/sim"
	"repro/internal/trace"
)

// perJob hides AdaptiveRanking's Prepare from sim.Run (and from
// rebalance.New), so every job is classified on its own in Place.
type perJob struct{ p *policy.AdaptiveRanking }

func (u perJob) Name() string                                { return u.p.Name() }
func (u perJob) Place(j *trace.Job, c sim.PlaceContext) bool { return u.p.Place(j, c) }
func (u perJob) Observe(j *trace.Job, o sim.Outcome)         { u.p.Observe(j, o) }

// TestPreparedMatchesPerJob: on every checked-in scenario's trace and
// model, a replay that classifies its trace up front (sim.Preparer) and
// one that classifies job by job return equal Results — every float,
// every Record — and leave equal controller traces, bare and under the
// rebalancer. (internal/policy has the same test over the benchmark's
// fixture pool.)
func TestPreparedMatchesPerJob(t *testing.T) {
	pkgs, err := Discover(repoScenarios)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		spec := pkg.Spec
		if spec.Pipeline == PipelineFleet || (testing.Short() && !shortSubset.MatchString(pkg.Name)) {
			continue // a fleet spec generates its clusters' traces itself
		}
		t.Run(pkg.Name, func(t *testing.T) {
			e, err := buildEnv(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.Config{SSDQuota: e.quota, KeepRecords: true}
			rcfg := rebalance.Config{HalfLifeSec: heatHalfLifeSec, SolveIntervalSec: rebalanceSec}
			run := func(prepared, rebalanced bool) (*sim.Result, []core.ACTPoint) {
				acfg := core.DefaultAdaptiveConfig(e.model.NumCategories())
				acfg.RecordTrace = true
				ranking, err := policy.NewAdaptiveRanking(e.model, e.cm, acfg)
				if err != nil {
					t.Fatal(err)
				}
				var p sim.Policy = ranking
				if !prepared {
					p = perJob{ranking}
				}
				if rebalanced {
					p = rebalance.New(p, e.cm, rcfg)
				}
				res, err := sim.Run(e.test, p, e.cm, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res, ranking.ACTTrace()
			}
			for _, rebalanced := range []bool{false, true} {
				want, wantACT := run(false, rebalanced)
				got, gotACT := run(true, rebalanced)
				if got.TCOSaved != want.TCOSaved || got.TCIOSaved != want.TCIOSaved {
					t.Errorf("rebalanced %v: prepared TCO %v TCIO %v, per job %v %v", rebalanced,
						got.TCOSaved, got.TCIOSaved, want.TCOSaved, want.TCIOSaved)
				}
				if len(want.Records) != len(e.test.Jobs) || !reflect.DeepEqual(got, want) {
					t.Errorf("rebalanced %v: prepared Result differs from the per-job run's", rebalanced)
				}
				if len(wantACT) == 0 || !reflect.DeepEqual(gotACT, wantACT) {
					t.Errorf("rebalanced %v: controller traces differ (%d and %d points)", rebalanced, len(gotACT), len(wantACT))
				}
			}
		})
	}
}
