//go:build !race

package rebalance

import (
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
)

// TestSolveSteadyStateAllocs: a Policy re-solves into the heat snapshot,
// plan map and candidate list it keeps, so once they have grown to the
// tracked workloads a solve allocates nothing. The plan it fills is the
// one a solve into fresh storage computes.
func TestSolveSteadyStateAllocs(t *testing.T) {
	cm := cost.Default()
	p := New(admitAll{}, cm, Config{SolveIntervalSec: 60})
	for i := 0; i < 12; i++ {
		for k := 0; k < 5; k++ {
			at := float64(60 * (5*i + k))
			h, c := hotJob("h", at), coldJob("c", at)
			h.Pipeline, c.Pipeline = "hot"+itoa(i), "cold"+itoa(i%4)
			h.LifetimeSec *= float64(1 + i)
			p.Observe(h, placed())
			p.Observe(c, placed())
		}
	}
	now := 3600.0
	var demand float64
	for _, w := range p.heat.snapshotInto(nil, now) {
		if w.Savings > 0 {
			demand += w.ByteSec / (p.cfg.halfLife() / math.Ln2)
		}
	}
	// A third of the hot demand: the quota binds mid-list and the fill
	// runs.
	quota := demand / 3
	p.maybeSolve(sim.PlaceContext{Now: now, SSDQuota: quota}) // arms the timer
	solveOnce := func() {
		now += p.cfg.solveInterval()
		p.maybeSolve(sim.PlaceContext{Now: now, SSDQuota: quota})
	}
	if got := testing.AllocsPerRun(20, solveOnce); got != 0 {
		t.Errorf("%.1f allocations per warm solve, want 0", got)
	}
	if s := p.Stats(); s.Solves != 21 {
		t.Fatalf("%d solves, want 21", s.Solves)
	}

	want := solve(p.heat.snapshotInto(nil, now), quota, p.cfg, &counters{})
	checkPlan(t, p.plan, want)
	var zero, partial int
	for _, r := range want {
		switch {
		case r == 0:
			zero++
		case r < 1:
			partial++
		}
	}
	if zero == 0 || partial == 0 {
		t.Errorf("plan %v: want demoted and fractional workloads both", want)
	}
}
