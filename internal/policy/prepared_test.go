package policy_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/policy"
	"repro/internal/rebalance"
	"repro/internal/sim"
	"repro/internal/trace"
)

var fixture struct {
	once  sync.Once
	f     *perf.Fixture
	model *core.CategoryModel
	err   error
}

// poolFixture is the benchmark's seed-1 fixture with a small model: the
// whole 16,384-job replay pool (the quick fixture's 1,536 under -short),
// and a forest cheap enough to run job by job as well.
func poolFixture(tb testing.TB) (*perf.Fixture, *core.CategoryModel) {
	tb.Helper()
	fixture.once.Do(func() {
		fixture.f, fixture.err = perf.NewFixture(1, testing.Short())
		if fixture.err != nil {
			return
		}
		f := fixture.f
		scale := perf.ScaleLite
		if testing.Short() {
			scale = perf.ScalePaper // seven rounds on the quick fixture; its lite model is one round and admits nothing
		}
		fixture.model, fixture.err = core.TrainCategoryModel(f.Train, f.Cost, f.TrainOptions(scale))
	})
	if fixture.err != nil {
		tb.Fatal(fixture.err)
	}
	return fixture.f, fixture.model
}

// perJob hides AdaptiveRanking's Prepare from sim.Run (and from
// rebalance.New), so every job is classified on its own in Place.
type perJob struct{ p *policy.AdaptiveRanking }

func (u perJob) Name() string                                { return u.p.Name() }
func (u perJob) Place(j *trace.Job, c sim.PlaceContext) bool { return u.p.Place(j, c) }
func (u perJob) Observe(j *trace.Job, o sim.Outcome)         { u.p.Observe(j, o) }

func tracedRanking(tb testing.TB, model *core.CategoryModel, f *perf.Fixture) *policy.AdaptiveRanking {
	tb.Helper()
	cfg := core.DefaultAdaptiveConfig(model.NumCategories())
	cfg.RecordTrace = true
	p, err := policy.NewAdaptiveRanking(model, f.Cost, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestPreparedMatchesPerJob: classifying the trace ahead of the replay
// changes nothing a replay reports. Over the fixture pool, sim.Run with
// AdaptiveRanking as it is (prepared), with a classification handed in,
// and behind a wrapper that hides Prepare return equal Results — every
// float, every Record — and leave equal controller traces; the same
// with each wrapped in the rebalancer. (internal/scenario has the same
// test over every scenarios/* trace.)
func TestPreparedMatchesPerJob(t *testing.T) {
	f, model := poolFixture(t)
	tr := &trace.Trace{Cluster: "C0", Jobs: f.Pool}
	cfg := sim.Config{SSDQuota: 0.05 * tr.PeakSSDUsage(), KeepRecords: true}
	rcfg := rebalance.Config{HalfLifeSec: 6 * 3600, SolveIntervalSec: 3600}
	cats := model.Categories(f.Pool, nil)

	type variant struct {
		name string
		wrap func(p *policy.AdaptiveRanking) sim.Policy
	}
	run := func(v variant, rebalanced bool) (*sim.Result, []core.ACTPoint) {
		t.Helper()
		ranking := tracedRanking(t, model, f)
		p := v.wrap(ranking)
		if rebalanced {
			p = rebalance.New(p, f.Cost, rcfg)
		}
		res, err := sim.Run(tr, p, f.Cost, cfg)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		return res, ranking.ACTTrace()
	}
	reference := variant{"per job", func(p *policy.AdaptiveRanking) sim.Policy { return perJob{p} }}
	variants := []variant{
		{"prepared", func(p *policy.AdaptiveRanking) sim.Policy { return p }},
		{"handed in", func(p *policy.AdaptiveRanking) sim.Policy { return p.WithCategories(f.Pool, cats) }},
		// A classification of other jobs is not used: Prepare redoes it.
		{"handed in for another trace", func(p *policy.AdaptiveRanking) sim.Policy {
			return p.WithCategories(f.Train[:len(cats)], cats)
		}},
	}
	for _, rebalanced := range []bool{false, true} {
		want, wantACT := run(reference, rebalanced)
		if want.TCOSaved == 0 || len(wantACT) == 0 || len(want.Records) != len(f.Pool) {
			t.Fatalf("degenerate reference run: TCO saved %g, %d ACT points, %d records", want.TCOSaved, len(wantACT), len(want.Records))
		}
		for _, v := range variants {
			got, gotACT := run(v, rebalanced)
			if got.TCOSaved != want.TCOSaved || got.TCIOSaved != want.TCIOSaved || got.SSDPeakUsed != want.SSDPeakUsed {
				t.Errorf("%s (rebalanced %v): TCO %v TCIO %v peak %v, per job %v %v %v", v.name, rebalanced,
					got.TCOSaved, got.TCIOSaved, got.SSDPeakUsed, want.TCOSaved, want.TCIOSaved, want.SSDPeakUsed)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (rebalanced %v): Result differs from the per-job run's", v.name, rebalanced)
			}
			if !reflect.DeepEqual(gotACT, wantACT) {
				t.Errorf("%s (rebalanced %v): controller trace differs from the per-job run's", v.name, rebalanced)
			}
		}
	}
}

// TestWithCategoriesLengthMismatch: a classification that is not one
// category per job is a caller bug, and says so.
func TestWithCategoriesLengthMismatch(t *testing.T) {
	f, model := poolFixture(t)
	p := tracedRanking(t, model, f)
	if p.WithCategories(f.Pool[:8], nil) != p {
		t.Fatal("nil categories: WithCategories did not return its policy")
	}
	defer func() {
		if recover() == nil {
			t.Error("7 categories for 8 jobs: no panic")
		}
	}()
	p.WithCategories(f.Pool[:8], make([]int32, 7))
}

// TestPlaceOutOfOrder: a prepared policy asked about jobs in another
// order than it was prepared for — skipped, repeated, shuffled, unseen —
// decides each as an unprepared one does.
func TestPlaceOutOfOrder(t *testing.T) {
	f, model := poolFixture(t)
	jobs := f.Pool[:512]
	prepared, plain := tracedRanking(t, model, f), tracedRanking(t, model, f)
	if err := prepared.Prepare(jobs); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	order := rng.Perm(len(jobs))
	copy(order, []int{0, 1, 3, 3, 2}) // in turn, a skip, a repeat, a step back
	now := 0.0
	for step, i := range order {
		j := jobs[i]
		if step%7 == 6 {
			j = f.Train[step] // a job Prepare never saw
		}
		now += 40
		ctx := sim.PlaceContext{Now: now}
		got, want := prepared.Place(j, ctx), plain.Place(j, ctx)
		if got != want {
			t.Fatalf("step %d (job %d): prepared policy says %v, unprepared %v", step, i, got, want)
		}
		out := sim.Outcome{WantedSSD: got, FracOnSSD: 0.5, SpilledAt: now, EvictedAt: -1}
		prepared.Observe(j, out)
		plain.Observe(j, out)
	}
	if got, want := prepared.ACTTrace(), plain.ACTTrace(); len(want) < 10 || !reflect.DeepEqual(got, want) {
		t.Errorf("controller traces differ (%d and %d points)", len(got), len(want))
	}
}
