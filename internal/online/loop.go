package online

import (
	"context"
	"fmt"

	"repro/internal/cost"
	"repro/internal/rpc/wire"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Placer is the decision seam a replay drives: the shape rpc.Client and
// router.Router have, and Local gives a serve.Server. Place returns one
// decision per job, in order, whenever its error is nil.
type Placer interface {
	Place(ctx context.Context, jobs []*trace.Job) ([]wire.Decision, error)
	Observe(ctx context.Context, j *trace.Job, category int, o sim.Outcome) error
}

// Local gives an in-process server the Placer shape. It reuses its
// decision slices, so a warm single-job Place allocates nothing; the
// slice it returns is valid until the next call, from one goroutine.
func Local(srv *serve.Server) Placer { return &local{srv: srv} }

type local struct {
	srv *serve.Server
	out []serve.Decision
	dec []wire.Decision
}

func (l *local) Place(_ context.Context, jobs []*trace.Job) ([]wire.Decision, error) {
	out, err := l.srv.SubmitBatch(jobs, l.out)
	l.out, l.dec = out, l.dec[:0]
	for i, d := range out {
		l.dec = append(l.dec, wire.Decision{JobID: jobs[i].ID, Admit: d.Admit, Category: d.Category, ModelVersion: d.ModelVersion, Shard: d.Shard})
	}
	return l.dec, err
}

func (l *local) Observe(_ context.Context, j *trace.Job, _ int, o sim.Outcome) error {
	return l.srv.Observe(j, o)
}

// loop adapts a Placer into a sim.Policy, closing the loop: the
// simulator asks the placer for each placement, models the spillover
// that decision causes, and feeds the outcome back to the placer's
// Algorithm 1 controller and the job, with its served category, to the
// optional learner's window.
type loop struct {
	p       Placer
	learner *Learner // nil = frozen-model baseline
	one     [1]*trace.Job
	lastCat int // category of the last decision (sim runs jobs one at a time)
	err     error
}

func (l *loop) Name() string { return "OnlineLoop" }

// Place fails fast: after the first placer error the replay neither
// queries the placer nor feeds the learner, which could otherwise
// publish models trained on mislabeled records before the caller sees
// the error.
func (l *loop) Place(j *trace.Job, _ sim.PlaceContext) bool {
	if l.err != nil {
		return false
	}
	l.one[0] = j
	ds, err := l.p.Place(context.Background(), l.one[:])
	if err != nil {
		l.err = err
		return false
	}
	l.lastCat = ds[0].Category
	return ds[0].Admit
}

func (l *loop) Observe(j *trace.Job, o sim.Outcome) {
	if l.err != nil {
		return
	}
	if err := l.p.Observe(context.Background(), j, l.lastCat, o); err != nil {
		l.err = err
		return
	}
	if l.learner != nil {
		l.learner.Observe(j, l.lastCat)
	}
}

// RunLoop replays a trace through the full closed loop — placer
// decisions, simulated SSD occupancy, outcome feedback to the placer's
// controller and (when learner is non-nil) each job to the learner's window,
// which retrains, gates and hot-swaps the served model mid-replay. A
// nil learner replays against the frozen live model. The replay is
// sequential: one job per Place call, its outcome observed before the
// next job arrives. Use a synchronous (non-Async) learner for
// deterministic swap points: retraining consumes no virtual time.
func RunLoop(tr *trace.Trace, p Placer, learner *Learner, cm *cost.Model, cfg sim.Config) (*sim.Result, error) {
	l := &loop{p: p, learner: learner}
	res, err := sim.Run(tr, l, cm, cfg)
	if err != nil {
		return nil, err
	}
	if l.err != nil {
		return nil, fmt.Errorf("online: replay loop: %w", l.err)
	}
	return res, nil
}

// TailSavingsPercent returns the TCO savings percent of the replay
// restricted to jobs arriving at or after fromSec — the post-drift view
// the end-to-end comparison needs. The result must have been produced
// with sim.Config.KeepRecords set.
func TailSavingsPercent(res *sim.Result, cm *cost.Model, fromSec float64) (float64, error) {
	if len(res.Records) == 0 {
		return 0, fmt.Errorf("online: result has no records (run with KeepRecords)")
	}
	var saved, baseline float64
	for _, rec := range res.Records {
		if rec.Job.ArrivalSec < fromSec {
			continue
		}
		saved += rec.TCOSaved
		baseline += cm.TCOHDD(rec.Job)
	}
	if baseline <= 0 {
		return 0, fmt.Errorf("online: no jobs at or after t=%g", fromSec)
	}
	return 100 * saved / baseline, nil
}
