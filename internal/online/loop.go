package online

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// loopPolicy adapts a serving front-end (plus an optional learner) into
// a sim.Policy, closing the loop: the simulator asks the server for
// each placement, models the SSD occupancy and spillover that decision
// causes, and feeds the outcome back to both the server's Algorithm 1
// controller and the learner's feedback window.
type loopPolicy struct {
	srv     *serve.Server
	learner *Learner // nil = frozen-model baseline
	lastCat int      // category of the last decision (sim runs jobs one at a time)
	err     error
}

func (p *loopPolicy) Name() string { return "OnlineLoop" }

// Place fails fast: after the first server error the rest of the
// replay neither queries the server nor feeds the learner (which would
// otherwise ingest stale categories and could publish models trained
// on mislabeled records before the caller ever sees the error).
func (p *loopPolicy) Place(j *trace.Job, ctx sim.PlaceContext) bool {
	if p.err != nil {
		return false
	}
	d, err := p.srv.Submit(j)
	if err != nil {
		p.err = err
		return false
	}
	p.lastCat = d.Category
	return d.Admit
}

func (p *loopPolicy) Observe(j *trace.Job, o sim.Outcome) {
	if p.err != nil {
		return
	}
	if err := p.srv.Observe(j, o); err != nil {
		p.err = err
		return
	}
	if p.learner != nil {
		p.learner.Observe(j, p.lastCat, o)
	}
}

// RunLoop replays a trace through the full closed loop — server
// decisions, simulated SSD occupancy, outcome feedback to the server's
// controller and (when learner is non-nil) to the learner's window,
// which retrains, gates and hot-swaps the server's model mid-replay.
// Pass a nil learner to replay the same trace against the frozen live
// model (the baseline the end-to-end drift test compares against).
//
// The replay is sequential in virtual time, so configure the server
// with BatchSize 1 for it: each decision must land before the next job
// arrives, and batch accumulation would only add FlushInterval of wall
// clock per job. Use a synchronous (non-Async) learner here for
// deterministic swap points: retraining consumes no virtual time.
func RunLoop(tr *trace.Trace, srv *serve.Server, learner *Learner, cm *cost.Model, cfg sim.Config) (*sim.Result, error) {
	p := &loopPolicy{srv: srv, learner: learner}
	res, err := sim.Run(tr, p, cm, cfg)
	if err != nil {
		return nil, err
	}
	if p.err != nil {
		return nil, fmt.Errorf("online: replay loop: %w", p.err)
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
