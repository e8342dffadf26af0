package core

import (
	"fmt"
	"math"
)

// WindowMode selects which observations the spillover estimator
// considers. The paper (§4.3) found that using jobs *starting* within
// the look-back window estimates current SSD pressure more accurately
// than using jobs overlapping the window, where long-lived jobs have an
// outsize effect; both are implemented for the ablation.
type WindowMode int

const (
	// WindowStartWithin keeps jobs that started inside the window
	// (the paper's choice).
	WindowStartWithin WindowMode = iota
	// WindowOverlapping keeps jobs whose lifetime overlaps the window.
	WindowOverlapping
)

func (m WindowMode) String() string {
	if m == WindowOverlapping {
		return "overlapping"
	}
	return "start-within"
}

// AdaptiveConfig holds Algorithm 1's hyperparameters (Table 1 notation
// in comments).
type AdaptiveConfig struct {
	// NumCategories is N; the admission threshold ranges over [1, N-1].
	NumCategories int
	// LookBackSec is tw, the look-back window length. The estimator
	// considers jobs *starting* within the window (the paper found this
	// more accurate than jobs overlapping it).
	LookBackSec float64
	// DecisionIntervalSec is tl: ACT updates happen at most once per
	// interval, at job arrivals.
	DecisionIntervalSec float64
	// SpilloverLow/High are [T_l, T_u], the spillover tolerance range
	// within which ACT is left unchanged.
	SpilloverLow  float64
	SpilloverHigh float64
	// InitialACT is the starting admission category threshold (the
	// paper initializes ACT = 1: admit every non-negative category).
	InitialACT int
	// RecordTrace retains the ACT/spillover time series (Fig. 16).
	RecordTrace bool
	// WindowMode selects the observation-retention semantics.
	WindowMode WindowMode
}

// DefaultAdaptiveConfig returns the hyperparameters used by the paper's
// sensitivity analysis midpoint: tw = 900 s, tl = 900 s,
// T = [0.01, 0.15].
func DefaultAdaptiveConfig(numCategories int) AdaptiveConfig {
	return AdaptiveConfig{
		NumCategories:       numCategories,
		LookBackSec:         900,
		DecisionIntervalSec: 900,
		SpilloverLow:        0.01,
		SpilloverHigh:       0.15,
		InitialACT:          1,
	}
}

// Validate checks the configuration.
func (c *AdaptiveConfig) Validate() error {
	switch {
	case c.NumCategories < 2:
		return fmt.Errorf("core: adaptive needs >= 2 categories, got %d", c.NumCategories)
	case c.LookBackSec <= 0:
		return fmt.Errorf("core: look-back window must be positive, got %g", c.LookBackSec)
	case c.DecisionIntervalSec < 0:
		return fmt.Errorf("core: decision interval must be non-negative, got %g", c.DecisionIntervalSec)
	case c.SpilloverLow < 0 || c.SpilloverHigh < c.SpilloverLow:
		return fmt.Errorf("core: invalid spillover tolerance [%g, %g]", c.SpilloverLow, c.SpilloverHigh)
	case c.InitialACT < 1 || c.InitialACT > c.NumCategories-1:
		return fmt.Errorf("core: initial ACT %d outside [1, %d]", c.InitialACT, c.NumCategories-1)
	}
	return nil
}

// observation is one entry of the observation history Xh.
type observation struct {
	arrival   float64 // ta
	end       float64 // te
	wantedSSD bool    // x.DEV
	spilledAt float64 // ts; < 0 if no spillover
	spillFrac float64 // fraction of the job that spilled to HDD
	tcioRate  float64 // TCIO per second of lifetime if on HDD
}

// tcioHDDUntil is TCIO_HDD(t): the job's cumulative TCIO had it run on
// HDD until time t.
func (o *observation) tcioHDDUntil(t float64) float64 {
	elapsed := math.Min(t, o.end) - o.arrival
	if elapsed <= 0 {
		return 0
	}
	return o.tcioRate * elapsed
}

// spilloverTCIO is SPILLOVER_TCIO(x, t): the portion of the job's
// intended TCIO savings not realized because it spilled to HDD,
// weighted by the spilled fraction (partial placements spill only part
// of the job).
func (o *observation) spilloverTCIO(t float64) float64 {
	if !o.wantedSSD || o.spilledAt < 0 || o.spilledAt < o.arrival || o.spilledAt > t {
		return 0
	}
	denom := t - o.arrival
	if denom <= 0 {
		return 0
	}
	return o.spillFrac * (t - o.spilledAt) / denom * o.tcioHDDUntil(t)
}

// ACTPoint samples the controller state (Fig. 16's time series).
type ACTPoint struct {
	At        float64
	ACT       int
	Spillover float64
}

// Adaptive implements Algorithm 1: the storage-layer controller that
// turns category predictions into admissions using spillover feedback.
type Adaptive struct {
	cfg          AdaptiveConfig
	act          int
	lastDecision float64 // td
	started      bool
	history      []observation // Xh, sorted by arrival
	trace        []ACTPoint
}

// NewAdaptive builds the controller. The config must validate.
func NewAdaptive(cfg AdaptiveConfig) (*Adaptive, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Adaptive{cfg: cfg, act: cfg.InitialACT}, nil
}

// ACT returns the current admission category threshold.
func (a *Adaptive) ACT() int { return a.act }

// Trace returns the recorded controller time series (empty unless
// RecordTrace was set).
func (a *Adaptive) Trace() []ACTPoint { return a.trace }

// Admit decides whether a job with the given predicted category should
// go to SSD at the given time, updating the threshold first if the last
// decision has expired (Algorithm 1 lines 3-10).
func (a *Adaptive) Admit(category int, now float64) bool {
	a.maybeUpdate(now)
	return category >= a.act
}

// maybeUpdate refreshes ACT when the previous admission decision has
// expired: now >= td + tl.
func (a *Adaptive) maybeUpdate(now float64) {
	if a.started && now < a.lastDecision+a.cfg.DecisionIntervalSec {
		return
	}
	a.started = true
	a.lastDecision = now

	ws := now - a.cfg.LookBackSec
	if a.cfg.WindowMode == WindowOverlapping {
		// Keep any observation whose lifetime overlaps the window.
		keep := a.history[:0]
		for _, o := range a.history {
			if o.end > ws {
				keep = append(keep, o)
			}
		}
		a.history = keep
	} else {
		// Drop jobs arriving at or before the window start (history is
		// arrival-ordered, so this is a prefix cut). The kept tail moves
		// to the front of the array: re-slicing past the prefix instead
		// would give up that capacity, and the appends that follow would
		// reallocate the window once per few intervals for ever.
		cut := 0
		for cut < len(a.history) && a.history[cut].arrival <= ws {
			cut++
		}
		a.history = a.history[:copy(a.history, a.history[cut:])]
	}

	p := a.spilloverPercent(now)
	switch {
	case p < a.cfg.SpilloverLow:
		// Plenty of SSD headroom: admit more categories.
		if a.act > 1 {
			a.act--
		}
	case p > a.cfg.SpilloverHigh:
		// SSDs nearly full: admit only more important categories.
		if a.act < a.cfg.NumCategories-1 {
			a.act++
		}
	}
	if a.cfg.RecordTrace {
		a.trace = append(a.trace, ACTPoint{At: now, ACT: a.act, Spillover: p})
	}
}

// spilloverPercent computes P_SPILLOVER_TCIO(Xh, t): spilled TCIO as a
// fraction of the TCIO of all jobs scheduled onto SSD in the window.
// With no SSD-scheduled observations it returns 0 (no pressure signal).
func (a *Adaptive) spilloverPercent(now float64) float64 {
	var spilled, scheduled float64
	for i := range a.history {
		o := &a.history[i]
		if !o.wantedSSD {
			continue
		}
		scheduled += o.tcioHDDUntil(now)
		spilled += o.spilloverTCIO(now)
	}
	if scheduled <= 0 {
		return 0
	}
	return spilled / scheduled
}

// Observe appends a placement outcome to the observation history.
// tcioRate is the job's TCIO divided by its lifetime; spilledAt < 0
// means no spillover; spillFrac is the byte fraction that spilled.
func (a *Adaptive) Observe(arrival, end float64, wantedSSD bool, spilledAt, spillFrac, tcioRate float64) {
	a.history = append(a.history, observation{
		arrival:   arrival,
		end:       end,
		wantedSSD: wantedSSD,
		spilledAt: spilledAt,
		spillFrac: spillFrac,
		tcioRate:  tcioRate,
	})
}
