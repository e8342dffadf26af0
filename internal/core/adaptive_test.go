package core

import (
	"testing"
)

func newTestAdaptive(t *testing.T, n int, mutate func(*AdaptiveConfig)) *Adaptive {
	t.Helper()
	cfg := DefaultAdaptiveConfig(n)
	cfg.RecordTrace = true
	if mutate != nil {
		mutate(&cfg)
	}
	a, err := NewAdaptive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAdaptiveConfigValidate(t *testing.T) {
	bad := []func(*AdaptiveConfig){
		func(c *AdaptiveConfig) { c.NumCategories = 1 },
		func(c *AdaptiveConfig) { c.LookBackSec = 0 },
		func(c *AdaptiveConfig) { c.DecisionIntervalSec = -1 },
		func(c *AdaptiveConfig) { c.SpilloverLow = -0.1 },
		func(c *AdaptiveConfig) { c.SpilloverHigh = 0.001 }, // below low
		func(c *AdaptiveConfig) { c.InitialACT = 0 },
		func(c *AdaptiveConfig) { c.InitialACT = 15 },
	}
	for i, mutate := range bad {
		cfg := DefaultAdaptiveConfig(15)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	cfg := DefaultAdaptiveConfig(15)
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestAdaptiveInitialAdmission(t *testing.T) {
	a := newTestAdaptive(t, 15, nil)
	// ACT starts at 1: category 0 rejected, all others admitted.
	if a.Admit(0, 0) {
		t.Error("category 0 admitted at ACT=1")
	}
	if !a.Admit(1, 0) {
		t.Error("category 1 rejected at ACT=1")
	}
	if !a.Admit(14, 0) {
		t.Error("category 14 rejected at ACT=1")
	}
}

// feed observes a stream of jobs with a fixed spillover fraction.
func feed(a *Adaptive, from, to, step float64, spillFrac float64) {
	for at := from; at < to; at += step {
		spilledAt := -1.0
		if spillFrac > 0 {
			spilledAt = at
		}
		a.Observe(at, at+600, true, spilledAt, spillFrac, 0.01)
	}
}

func TestAdaptiveRaisesACTUnderPressure(t *testing.T) {
	a := newTestAdaptive(t, 15, func(c *AdaptiveConfig) {
		c.DecisionIntervalSec = 100
		c.LookBackSec = 500
	})
	now := 0.0
	for round := 0; round < 30; round++ {
		feed(a, now, now+100, 10, 0.9) // heavy spillover
		now += 100
		a.Admit(5, now)
	}
	if got := a.ACT(); got != 14 {
		t.Errorf("ACT = %d after sustained spillover, want 14 (N-1)", got)
	}
	// Saturated: only the top category is admitted.
	if a.Admit(13, now) {
		t.Error("category 13 admitted at ACT=14")
	}
	if !a.Admit(14, now) {
		t.Error("category 14 rejected at ACT=14")
	}
}

func TestAdaptiveLowersACTWhenIdle(t *testing.T) {
	a := newTestAdaptive(t, 15, func(c *AdaptiveConfig) {
		c.DecisionIntervalSec = 100
		c.LookBackSec = 500
		c.InitialACT = 10
	})
	now := 0.0
	for round := 0; round < 30; round++ {
		feed(a, now, now+100, 10, 0) // no spillover at all
		now += 100
		a.Admit(5, now)
	}
	if got := a.ACT(); got != 1 {
		t.Errorf("ACT = %d after zero spillover, want 1", got)
	}
}

func TestAdaptiveStableWithinTolerance(t *testing.T) {
	a := newTestAdaptive(t, 15, func(c *AdaptiveConfig) {
		c.DecisionIntervalSec = 100
		c.LookBackSec = 500
		c.InitialACT = 7
		c.SpilloverLow = 0.01
		c.SpilloverHigh = 0.20
	})
	now := 0.0
	for round := 0; round < 20; round++ {
		feed(a, now, now+100, 10, 0.1) // inside [0.01, 0.20]
		now += 100
		a.Admit(5, now)
	}
	if got := a.ACT(); got != 7 {
		t.Errorf("ACT = %d with in-tolerance spillover, want unchanged 7", got)
	}
}

func TestAdaptiveDecisionInterval(t *testing.T) {
	a := newTestAdaptive(t, 15, func(c *AdaptiveConfig) {
		c.DecisionIntervalSec = 1000
		c.LookBackSec = 2000
		c.InitialACT = 5
	})
	// The first admit triggers the initial decision at t=0: with an
	// empty history the spillover signal is 0, so ACT drops by one
	// (the paper initializes td = 0, so t=0 is a decision point).
	a.Admit(5, 0)
	if got := a.ACT(); got != 4 {
		t.Fatalf("ACT = %d after initial decision, want 4", got)
	}
	feed(a, 0, 500, 10, 0.9)
	// Within the decision interval: ACT must not change despite heavy
	// spillover observations.
	a.Admit(5, 500)
	if got := a.ACT(); got != 4 {
		t.Errorf("ACT = %d inside decision interval, want 4", got)
	}
	// After the interval expires, the update sees the heavy spillover.
	a.Admit(5, 1001)
	if got := a.ACT(); got != 5 {
		t.Errorf("ACT = %d after interval, want 5", got)
	}
}

func TestAdaptiveWindowPruning(t *testing.T) {
	a := newTestAdaptive(t, 15, func(c *AdaptiveConfig) {
		c.DecisionIntervalSec = 10
		c.LookBackSec = 100
	})
	feed(a, 0, 50, 5, 0.5)
	if len(a.history) != 10 {
		t.Fatalf("history = %d, want 10", len(a.history))
	}
	// An update at t=500 prunes everything older than 400.
	a.Admit(5, 500)
	if len(a.history) != 0 {
		t.Errorf("history = %d after window passed, want 0", len(a.history))
	}
}

func TestAdaptiveTraceRecorded(t *testing.T) {
	a := newTestAdaptive(t, 15, func(c *AdaptiveConfig) {
		c.DecisionIntervalSec = 100
		c.LookBackSec = 200
	})
	for i := 0; i < 5; i++ {
		a.Admit(3, float64(i)*150)
	}
	tr := a.Trace()
	if len(tr) == 0 {
		t.Fatal("no trace recorded")
	}
	for i := 1; i < len(tr); i++ {
		if tr[i].At <= tr[i-1].At {
			t.Errorf("trace not time-ordered at %d", i)
		}
	}
	for _, p := range tr {
		if p.ACT < 1 || p.ACT > 14 {
			t.Errorf("trace ACT %d outside [1,14]", p.ACT)
		}
		if p.Spillover < 0 || p.Spillover > 1 {
			t.Errorf("trace spillover %g outside [0,1]", p.Spillover)
		}
	}
}

func TestAdaptiveNoSSDScheduledZeroSignal(t *testing.T) {
	a := newTestAdaptive(t, 15, func(c *AdaptiveConfig) {
		c.DecisionIntervalSec = 10
		c.LookBackSec = 100
		c.InitialACT = 5
	})
	// Only HDD-scheduled observations: spillover percent is 0 and ACT
	// decays toward 1 (admit more).
	for at := 0.0; at < 200; at += 10 {
		a.Observe(at, at+60, false, -1, 0, 0.01)
		a.Admit(5, at)
	}
	if got := a.ACT(); got != 1 {
		t.Errorf("ACT = %d with no SSD-scheduled jobs, want 1", got)
	}
}

func TestAdaptivePartialSpilloverWeighted(t *testing.T) {
	// A 10% spill fraction should produce ~10% spillover percentage,
	// inside the default tolerance band -> ACT stays.
	a := newTestAdaptive(t, 15, func(c *AdaptiveConfig) {
		c.DecisionIntervalSec = 100
		c.LookBackSec = 1000
		c.InitialACT = 7
		c.SpilloverLow = 0.05
		c.SpilloverHigh = 0.15
	})
	now := 0.0
	for round := 0; round < 10; round++ {
		feed(a, now, now+100, 10, 0.10)
		now += 100
		a.Admit(5, now)
	}
	if got := a.ACT(); got != 7 {
		t.Errorf("ACT = %d, want 7 (10%% spill within [5%%,15%%])", got)
	}
	tr := a.Trace()
	last := tr[len(tr)-1]
	if last.Spillover < 0.05 || last.Spillover > 0.15 {
		t.Errorf("measured spillover %g, want ~0.10", last.Spillover)
	}
}
