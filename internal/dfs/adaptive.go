package dfs

import (
	"repro/internal/core"
)

// AdaptiveDecider runs the paper's Algorithm 1 at the caching servers:
// it admits hint categories at or above the adaptive threshold and
// feeds placement outcomes back into the spillover estimator.
//
// Deployment simplification: the simulator weights spillover by each
// job's measured TCIO; a caching server deciding at file-create time
// only knows the declared size, so observations here are weighted by
// bytes (tcioRate = declared size over a nominal window). The control
// behaviour — raise the threshold when spillover exceeds tolerance,
// lower it when the cache has headroom — is identical.
type AdaptiveDecider struct {
	ctrl *core.Adaptive
	// nominalLifetime spreads each observation's weight over a window.
	nominalLifetime float64
}

// NewAdaptiveDecider builds the decider from an Algorithm 1 config.
func NewAdaptiveDecider(cfg core.AdaptiveConfig) (*AdaptiveDecider, error) {
	ctrl, err := core.NewAdaptive(cfg)
	if err != nil {
		return nil, err
	}
	return &AdaptiveDecider{ctrl: ctrl, nominalLifetime: cfg.LookBackSec / 2}, nil
}

// Decide implements Decider.
func (d *AdaptiveDecider) Decide(h Hint, now float64) bool {
	return d.ctrl.Admit(h.Category, now)
}

// ObservePlacement implements DeciderObserver.
func (d *AdaptiveDecider) ObservePlacement(h Hint, fracOnSSD float64, wantedSSD, spilled bool, now float64) {
	spilledAt := -1.0
	spillFrac := 0.0
	if spilled {
		spilledAt = now
		spillFrac = 1 - fracOnSSD
	}
	weightRate := h.SizeBytes / d.nominalLifetime
	d.ctrl.Observe(now, now+d.nominalLifetime, wantedSSD, spilledAt, spillFrac, weightRate)
}

// ACT exposes the current admission threshold (diagnostics).
func (d *AdaptiveDecider) ACT() int { return d.ctrl.ACT() }

// FitDecider admits any file that currently fits entirely in the free
// SSD capacity — the FirstFit baseline at the caching-server layer.
// Bind it to the cluster after construction.
type FitDecider struct {
	cluster *Cluster
}

// Bind attaches the decider to its cluster (two-phase construction
// because the cluster needs a decider at creation).
func (d *FitDecider) Bind(c *Cluster) { d.cluster = c }

// Decide implements Decider.
func (d *FitDecider) Decide(h Hint, _ float64) bool {
	if d.cluster == nil {
		return false
	}
	// Called from Cluster.Create which holds the lock; read fields
	// directly rather than through locking accessors.
	return h.SizeBytes <= d.cluster.ssdCap-d.cluster.ssdUsed
}
