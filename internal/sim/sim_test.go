package sim

import (
	"container/heap"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/trace"
)

func job(id string, arrival, lifetime, size float64) *trace.Job {
	return &trace.Job{
		ID: id, ArrivalSec: arrival, LifetimeSec: lifetime, SizeBytes: size,
		ReadBytes: size * 20, WriteBytes: size * 1.2,
		AvgReadSizeBytes: 64 * 1024, CacheHitFrac: 0.2,
	}
}

func mkTrace(jobs ...*trace.Job) *trace.Trace {
	t := &trace.Trace{Cluster: "T", Jobs: jobs}
	t.Sort()
	return t
}

// always wants SSD for everything.
type always struct{}

func (always) Name() string                        { return "always" }
func (always) Place(*trace.Job, PlaceContext) bool { return true }

// never wants SSD.
type never struct{}

func (never) Name() string                        { return "never" }
func (never) Place(*trace.Job, PlaceContext) bool { return false }

// recorder captures outcomes delivered via Observe.
type recorder struct {
	always
	outcomes []Outcome
}

func (r *recorder) Observe(_ *trace.Job, o Outcome) { r.outcomes = append(r.outcomes, o) }

// evictAfter evicts every SSD placement after a fixed delay.
type evictAfter struct {
	always
	delay float64
}

func (e evictAfter) EvictAfter(*trace.Job) float64 { return e.delay }

func TestRunAllHDDZeroSavings(t *testing.T) {
	cm := cost.Default()
	tr := mkTrace(job("a", 0, 100, 1e9), job("b", 50, 100, 1e9))
	res, err := Run(tr, never{}, cm, Config{SSDQuota: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	if res.TCOSaved != 0 || res.TCIOSaved != 0 {
		t.Errorf("all-HDD run saved TCO=%g TCIO=%g, want 0", res.TCOSaved, res.TCIOSaved)
	}
	if res.TCOSavingsPercent() != 0 {
		t.Errorf("savings percent = %g, want 0", res.TCOSavingsPercent())
	}
	if res.SSDPeakUsed != 0 {
		t.Errorf("peak used = %g, want 0", res.SSDPeakUsed)
	}
}

func TestRunFullPlacement(t *testing.T) {
	cm := cost.Default()
	a, b := job("a", 0, 100, 1e9), job("b", 500, 100, 1e9)
	tr := mkTrace(a, b)
	res, err := Run(tr, always{}, cm, Config{SSDQuota: 1e10, KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	wantTCO := cm.Savings(a) + cm.Savings(b)
	if math.Abs(res.TCOSaved-wantTCO) > math.Abs(wantTCO)*1e-9 {
		t.Errorf("TCOSaved = %g, want %g", res.TCOSaved, wantTCO)
	}
	wantTCIO := cm.TCIO(a) + cm.TCIO(b)
	if math.Abs(res.TCIOSaved-wantTCIO) > wantTCIO*1e-9 {
		t.Errorf("TCIOSaved = %g, want %g", res.TCIOSaved, wantTCIO)
	}
	if len(res.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(res.Records))
	}
	for _, r := range res.Records {
		if r.Outcome.FracOnSSD != 1 || r.Outcome.SpilledAt >= 0 {
			t.Errorf("job %s outcome %+v, want full fit", r.Job.ID, r.Outcome)
		}
	}
	// Jobs don't overlap: peak = one job.
	if res.SSDPeakUsed != 1e9 {
		t.Errorf("peak = %g, want 1e9", res.SSDPeakUsed)
	}
}

func TestRunPartialSpillover(t *testing.T) {
	cm := cost.Default()
	a := job("a", 0, 100, 6e8)
	b := job("b", 10, 100, 6e8) // only 4e8 of b fits
	tr := mkTrace(a, b)
	rec := &recorder{}
	res, err := Run(tr, rec, cm, Config{SSDQuota: 1e9, KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.outcomes) != 2 {
		t.Fatalf("outcomes = %d", len(rec.outcomes))
	}
	ob := rec.outcomes[1]
	wantFrac := 4e8 / 6e8
	if math.Abs(ob.FracOnSSD-wantFrac) > 1e-9 {
		t.Errorf("frac = %g, want %g", ob.FracOnSSD, wantFrac)
	}
	if ob.SpilledAt != 10 {
		t.Errorf("spilledAt = %g, want 10", ob.SpilledAt)
	}
	// Savings must be scaled by the on-SSD fraction.
	want := cm.Savings(a) + cm.PartialSavings(b, cost.PartialOutcome{FracOnSSD: wantFrac, ResidencyFrac: 1})
	if math.Abs(res.TCOSaved-want) > math.Abs(want)*1e-9 {
		t.Errorf("TCOSaved = %g, want %g", res.TCOSaved, want)
	}
}

func TestRunCapacityReleased(t *testing.T) {
	cm := cost.Default()
	// b arrives exactly when a ends: full capacity must be available.
	a := job("a", 0, 100, 1e9)
	b := job("b", 100, 100, 1e9)
	tr := mkTrace(a, b)
	rec := &recorder{}
	_, err := Run(tr, rec, cm, Config{SSDQuota: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range rec.outcomes {
		if o.FracOnSSD != 1 {
			t.Errorf("job %d frac = %g, want 1 (release before arrival)", i, o.FracOnSSD)
		}
	}
}

func TestRunEviction(t *testing.T) {
	cm := cost.Default()
	a := job("a", 0, 100, 1e9)
	b := job("b", 60, 100, 1e9)
	tr := mkTrace(a, b)
	// Evict after 50s: a's bytes are free again by t=60.
	captured := new([]Outcome)
	res, err := Run(tr, evictingRecorder{evictAfter{delay: 50}, captured}, cm,
		Config{SSDQuota: 1e9, KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	outs := *captured
	if len(outs) != 2 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	if outs[0].EvictedAt != 50 {
		t.Errorf("evictedAt = %g, want 50", outs[0].EvictedAt)
	}
	if outs[1].FracOnSSD != 1 {
		t.Errorf("b frac = %g, want 1 (a evicted)", outs[1].FracOnSSD)
	}
	// Savings reflect the shortened residency.
	want := cm.PartialSavings(a, cost.PartialOutcome{FracOnSSD: 1, ResidencyFrac: 0.5}) +
		cm.PartialSavings(b, cost.PartialOutcome{FracOnSSD: 1, ResidencyFrac: 0.5})
	if math.Abs(res.TCOSaved-want) > math.Abs(want)*1e-9 {
		t.Errorf("TCOSaved = %g, want %g", res.TCOSaved, want)
	}
}

type evictingRecorder struct {
	evictAfter
	outcomes *[]Outcome
}

func (e evictingRecorder) Observe(_ *trace.Job, o Outcome) { *e.outcomes = append(*e.outcomes, o) }

func TestRunZeroQuota(t *testing.T) {
	cm := cost.Default()
	tr := mkTrace(job("a", 0, 100, 1e9))
	rec := &recorder{}
	res, err := Run(tr, rec, cm, Config{SSDQuota: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.TCOSaved != 0 {
		t.Errorf("zero quota saved %g", res.TCOSaved)
	}
	if rec.outcomes[0].FracOnSSD != 0 || rec.outcomes[0].SpilledAt < 0 {
		t.Errorf("outcome %+v, want full spill", rec.outcomes[0])
	}
}

func TestRunErrors(t *testing.T) {
	cm := cost.Default()
	tr := mkTrace(job("a", 0, 100, 1e9))
	if _, err := Run(tr, always{}, cm, Config{SSDQuota: -5}); err == nil {
		t.Error("negative quota accepted")
	}
	bad := &trace.Trace{Jobs: []*trace.Job{job("b", 50, 10, 1), job("a", 0, 10, 1)}}
	if _, err := Run(bad, always{}, cm, Config{SSDQuota: 1}); err == nil {
		t.Error("unsorted trace accepted")
	}
}

func TestRunAll(t *testing.T) {
	cm := cost.Default()
	tr := mkTrace(job("a", 0, 100, 1e9))
	res, err := RunAll(tr, []Policy{always{}, never{}}, cm, Config{SSDQuota: 1e10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	if res["always"].TCOSaved <= res["never"].TCOSaved {
		t.Error("always should beat never on a hot job")
	}
}

// TestRunInvariantNeverExceedsQuota floods a small SSD with overlapping
// jobs and checks usage bounds via the generated cluster workload.
func TestRunInvariantNeverExceedsQuota(t *testing.T) {
	cm := cost.Default()
	cfg := trace.DefaultGeneratorConfig("C0", 77)
	cfg.DurationSec = 24 * 3600
	tr := trace.NewGenerator(cfg).Generate()
	quota := tr.PeakSSDUsage() * 0.02
	res, err := Run(tr, always{}, cm, Config{SSDQuota: quota})
	if err != nil {
		t.Fatal(err) // Run itself errors if usage exceeds quota
	}
	if res.SSDPeakUsed > quota+1e-6 {
		t.Errorf("peak %g exceeds quota %g", res.SSDPeakUsed, quota)
	}
	if res.TCIOSaved > res.TotalTCIO {
		t.Errorf("TCIO saved %g exceeds total %g", res.TCIOSaved, res.TotalTCIO)
	}
}

// TestRunAllDuplicateName: two policies under one name used to leave
// one result in the map, silently.
func TestRunAllDuplicateName(t *testing.T) {
	cm := cost.Default()
	tr := mkTrace(job("a", 0, 100, 1e9))
	res, err := RunAll(tr, []Policy{always{}, never{}, always{}}, cm, Config{SSDQuota: 1e10})
	if err == nil || !strings.Contains(err.Error(), "always") {
		t.Fatalf("RunAll with a policy listed twice = %v, %v; want an error naming it", res, err)
	}
}

// preparing is a policy that records what Run hands Prepare.
type preparing struct {
	always
	calls    int
	jobs     []*trace.Job
	prepared bool
	early    int // Place calls that came before the run's Prepare
	err      error
}

func (p *preparing) Prepare(jobs []*trace.Job) error {
	p.calls++
	p.jobs, p.prepared = jobs, true
	return p.err
}

func (p *preparing) Place(j *trace.Job, ctx PlaceContext) bool {
	if !p.prepared {
		p.early++
	}
	return true
}

// TestRunPrepares: Run hands a Preparer the trace's own job slice, once,
// before the first Place, on every Run; its error ends the run.
func TestRunPrepares(t *testing.T) {
	cm := cost.Default()
	tr := mkTrace(job("a", 0, 100, 1e9), job("b", 10, 100, 1e9))
	p := &preparing{}
	for run := 1; run <= 2; run++ {
		p.prepared = false
		if _, err := Run(tr, p, cm, Config{SSDQuota: 1e10}); err != nil {
			t.Fatal(err)
		}
		if p.calls != run || p.early != 0 {
			t.Fatalf("after run %d: %d Prepare calls, %d Place calls before Prepare", run, p.calls, p.early)
		}
		if len(p.jobs) != len(tr.Jobs) || &p.jobs[0] != &tr.Jobs[0] {
			t.Fatal("Prepare was not handed the trace's job slice")
		}
	}
	p.err = errors.New("no model")
	if _, err := Run(tr, p, cm, Config{SSDQuota: 1e10}); !errors.Is(err, p.err) {
		t.Fatalf("Run with a failing Prepare = %v", err)
	}
}

// boxedHeap is the release heap as it was: container/heap over an
// interface, the order reference for the typed one.
type boxedHeap []release

func (h boxedHeap) Len() int            { return len(h) }
func (h boxedHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(release)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestReleaseHeapMatchesContainerHeap: over 10,000 seeded push/pop
// sequences with most release times tied, the typed heap pops exactly
// what container/heap pops, ties included — bytes tell tied releases
// apart — so Run's `used` is summed in the order it always was.
func TestReleaseHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 10000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var typed releaseHeap
		boxed := &boxedHeap{}
		times := 1 + rng.Intn(6) // few distinct times: heavy ties
		for op := 0; op < 200; op++ {
			if len(typed) == 0 || rng.Intn(5) < 3 {
				r := release{at: float64(rng.Intn(times)), bytes: float64(op)}
				typed.push(r)
				heap.Push(boxed, r)
				continue
			}
			got, want := typed.pop(), heap.Pop(boxed).(release)
			if got != want {
				t.Fatalf("seed %d op %d: typed heap popped %+v, container/heap %+v", seed, op, got, want)
			}
		}
		for len(typed) > 0 {
			if got, want := typed.pop(), heap.Pop(boxed).(release); got != want {
				t.Fatalf("seed %d drain: typed heap popped %+v, container/heap %+v", seed, got, want)
			}
		}
		if boxed.Len() != 0 {
			t.Fatalf("seed %d: container/heap holds %d more", seed, boxed.Len())
		}
	}
}
