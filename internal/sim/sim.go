// Package sim is the cluster-scale placement simulator used for the
// paper's large-scale simulation study (Section 5.1): it replays a job
// trace against an SSD quota, asks a placement policy for a decision at
// each job arrival, models partial spillover to HDD when the SSD is
// full, supports evicting policies (the ML lifetime baseline), and
// accounts TCO/TCIO savings with the cost model.
//
// A policy that predicts with a model can classify the whole trace
// before the replay starts (Preparer): the replay then costs what the
// serving kernel costs per job in 64-row batches, and decides exactly
// as the per-job path does.
package sim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cost"
	"repro/internal/trace"
)

// PlaceContext is the environment a policy can observe at decision time.
// It deliberately excludes clairvoyant information: policies see only
// the current time, the quota and the free SSD space.
type PlaceContext struct {
	Now      float64
	SSDQuota float64
	SSDFree  float64
}

// Policy decides placement for each arriving job.
type Policy interface {
	// Name identifies the policy in results and reports.
	Name() string
	// Place returns true to request SSD placement for the job.
	Place(j *trace.Job, ctx PlaceContext) bool
}

// Evictor is an optional policy extension: if implemented and
// EvictAfter returns d > 0, a job placed on SSD is evicted d seconds
// after its arrival (the paper's ML baseline evicts after µ+σ).
type Evictor interface {
	EvictAfter(j *trace.Job) float64
}

// Observer is an optional policy extension delivering placement
// outcomes — the feedback channel the adaptive algorithm's spillover
// estimator consumes.
type Observer interface {
	Observe(j *trace.Job, o Outcome)
}

// Preparer is an optional policy extension: Run hands it the trace's
// jobs once, before the first Place, so the policy can do its per-job
// work that depends on nothing but the job (model inference) in one
// batched pass. What a Preparer may rely on and must keep:
//
//   - Run calls Prepare exactly once per replay, with the slice it then
//     walks in order; a policy reused for a second Run is prepared again.
//   - Whatever Prepare computes is a pure function of each job and the
//     policy's model, never of the replay's state, so a prepared Place
//     and an unprepared one return the same decision.
//   - Place must not depend on having been prepared, or on the order it
//     is called in: a job Prepare did not see, or one out of turn, is
//     decided by the per-job path.
type Preparer interface {
	Prepare(jobs []*trace.Job) error
}

// Outcome describes what actually happened to a job.
type Outcome struct {
	// WantedSSD is the policy's decision.
	WantedSSD bool
	// FracOnSSD is the byte fraction placed on SSD (partial spillover
	// leaves it in (0,1); a full spill makes it 0).
	FracOnSSD float64
	// SpilledAt is the absolute time spillover began, or -1.
	SpilledAt float64
	// EvictedAt is the absolute eviction time, or -1.
	EvictedAt float64
}

// Record is the per-job simulation output.
type Record struct {
	Job       *trace.Job
	Outcome   Outcome
	TCOSaved  float64
	TCIOSaved float64
}

// Result aggregates a simulation run.
type Result struct {
	PolicyName  string
	SSDQuota    float64
	Records     []Record
	TotalTCOHDD float64 // all-HDD baseline TCO
	TotalTCIO   float64 // all-HDD baseline TCIO
	TCOSaved    float64
	TCIOSaved   float64
	SSDPeakUsed float64
}

// TCOSavingsPercent returns TCO savings relative to the all-HDD
// baseline, in percent.
func (r *Result) TCOSavingsPercent() float64 {
	if r.TotalTCOHDD <= 0 {
		return 0
	}
	return 100 * r.TCOSaved / r.TotalTCOHDD
}

// TCIOSavingsPercent returns TCIO savings relative to the all-HDD
// baseline, in percent.
func (r *Result) TCIOSavingsPercent() float64 {
	if r.TotalTCIO <= 0 {
		return 0
	}
	return 100 * r.TCIOSaved / r.TotalTCIO
}

// Config controls a simulation run.
type Config struct {
	// SSDQuota is the SSD capacity in bytes.
	SSDQuota float64
	// KeepRecords retains per-job records (needed by some analyses;
	// disable for large sweeps to save memory).
	KeepRecords bool
}

// release is a scheduled return of SSD bytes.
type release struct {
	at    float64
	bytes float64
}

// releaseHeap is a binary min-heap on release.at: container/heap's
// algorithm on the concrete type, so nothing is boxed per push or pop.
// up and down are that package's sift loops comparison for comparison,
// which is what keeps equal-time releases popping in the order they
// always did, and Run's float sums in the order they always had.
type releaseHeap []release

// releaseHeaps keeps a finished replay's heap array for the next one,
// so a sweep's hundreds of runs do not each grow their own.
var releaseHeaps = sync.Pool{New: func() any { return new(releaseHeap) }}

func (h *releaseHeap) push(r release) {
	*h = append(*h, r)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest release.
func (h *releaseHeap) pop() release {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old[:n].down(0)
	*h = old[:n]
	return old[n]
}

func (h releaseHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].at < h[i].at) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h releaseHeap) down(i int) {
	n := len(h)
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].at < h[j1].at {
			j = j2 // right child
		}
		if !(h[j].at < h[i].at) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// Run replays the trace through the policy. Jobs must be sorted by
// arrival time (trace.Trace.Sort).
func Run(tr *trace.Trace, p Policy, cm *cost.Model, cfg Config) (*Result, error) {
	if cfg.SSDQuota < 0 {
		return nil, fmt.Errorf("sim: negative SSD quota %g", cfg.SSDQuota)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	res := &Result{PolicyName: p.Name(), SSDQuota: cfg.SSDQuota}
	evictor, _ := p.(Evictor)
	observer, _ := p.(Observer)
	if pr, ok := p.(Preparer); ok {
		if err := pr.Prepare(tr.Jobs); err != nil {
			return nil, fmt.Errorf("sim: preparing policy %s: %w", p.Name(), err)
		}
	}

	var used float64
	releases := releaseHeaps.Get().(*releaseHeap)
	defer releaseHeaps.Put(releases)
	*releases = (*releases)[:0]
	// Byte quantities are ~1e9-1e12, so accumulation drift is well above
	// any absolute epsilon; tolerances scale with the quota.
	eps := 1e-9 * (cfg.SSDQuota + 1)

	for _, j := range tr.Jobs {
		now := j.ArrivalSec
		for len(*releases) > 0 && (*releases)[0].at <= now {
			r := releases.pop()
			used -= r.bytes
			if used < -eps {
				return nil, fmt.Errorf("sim: SSD usage went negative (%g) at t=%g", used, r.at)
			}
			if used < 0 {
				used = 0
			}
		}

		res.TotalTCOHDD += cm.TCOHDD(j)
		res.TotalTCIO += cm.TCIO(j)

		ctx := PlaceContext{Now: now, SSDQuota: cfg.SSDQuota, SSDFree: cfg.SSDQuota - used}
		wants := p.Place(j, ctx)

		out := Outcome{WantedSSD: wants, SpilledAt: -1, EvictedAt: -1}
		if wants {
			put := math.Min(ctx.SSDFree, j.SizeBytes)
			if put < 0 {
				put = 0
			}
			out.FracOnSSD = put / j.SizeBytes
			if out.FracOnSSD < 1-1e-12 {
				out.SpilledAt = now
			}
			residency := 1.0
			releaseAt := j.EndSec()
			if evictor != nil {
				if d := evictor.EvictAfter(j); d > 0 && d < j.LifetimeSec {
					releaseAt = now + d
					residency = d / j.LifetimeSec
					out.EvictedAt = releaseAt
				}
			}
			if put > 0 {
				used += put
				if used > cfg.SSDQuota+eps {
					return nil, fmt.Errorf("sim: SSD usage %g exceeds quota %g at t=%g", used, cfg.SSDQuota, now)
				}
				if used > cfg.SSDQuota {
					used = cfg.SSDQuota
				}
				releases.push(release{at: releaseAt, bytes: put})
				if used > res.SSDPeakUsed {
					res.SSDPeakUsed = used
				}
			}
			po := cost.PartialOutcome{FracOnSSD: out.FracOnSSD, ResidencyFrac: residency}
			res.TCOSaved += cm.PartialSavings(j, po)
			res.TCIOSaved += cm.PartialTCIOSaved(j, po)
		}
		if observer != nil {
			observer.Observe(j, out)
		}
		if cfg.KeepRecords {
			po := cost.PartialOutcome{FracOnSSD: out.FracOnSSD, ResidencyFrac: 1}
			if out.EvictedAt >= 0 {
				po.ResidencyFrac = (out.EvictedAt - now) / j.LifetimeSec
			}
			rec := Record{Job: j, Outcome: out}
			if wants {
				rec.TCOSaved = cm.PartialSavings(j, po)
				rec.TCIOSaved = cm.PartialTCIOSaved(j, po)
			}
			res.Records = append(res.Records, rec)
		}
	}
	return res, nil
}

// RunAll runs several policies over the same trace and returns results
// keyed by policy name. Two policies with one name are an error: the
// second result would replace the first.
func RunAll(tr *trace.Trace, policies []Policy, cm *cost.Model, cfg Config) (map[string]*Result, error) {
	out := make(map[string]*Result, len(policies))
	for _, p := range policies {
		if _, dup := out[p.Name()]; dup {
			return nil, fmt.Errorf("sim: two policies are named %s", p.Name())
		}
		r, err := Run(tr, p, cm, cfg)
		if err != nil {
			return nil, fmt.Errorf("sim: policy %s: %w", p.Name(), err)
		}
		out[p.Name()] = r
	}
	return out, nil
}
