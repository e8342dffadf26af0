// Package scenario is the declarative workload suite: scenario
// packages are directories under scenarios/<name>/, each holding a
// spec (scenario.json) that says which trace to generate and which
// pipeline to drive (sim, serve, online or fleet), an expected golden
// report (report.golden) and optional regression thresholds
// (thresholds.json). A runner discovers, executes and diffs all of
// them on a bounded worker pool; cmd/scenario is the CLI front end.
//
// The layout follows elastic-package's per-package benchmark shape:
// sample inputs plus config discovered by a runner, so scenario
// diversity grows as a regression-tracked corpus instead of ad-hoc
// fixtures. Every future perf PR has a fixed arena to prove itself in.
//
// Determinism contract: a scenario's rendered report is bit-identical
// for the same spec at any runner worker count. Trace generation is
// seeded, training is bit-identical at any worker count, simulation
// replays virtual time, serving replays sequentially, and online loops
// retrain synchronously. Wall-clock-derived values
// (jobs/s, p99, wall ms) never appear in reports — they go to Stats,
// where thresholds and the bench history consume them.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"

	"repro/internal/trace"
)

// Pipeline names a scenario's execution seam.
const (
	PipelineSim       = "sim"       // policy simulation: ranking vs firstfit on the test half
	PipelineServe     = "serve"     // frozen model behind the sharded batching server
	PipelineOnline    = "online"    // closed continuous-learning loop with gated hot swaps
	PipelineFleet     = "fleet"     // multi-cluster fleet comparison
	PipelineRebalance = "rebalance" // write-time ranking alone vs wrapped in the heat-aware rebalancer
)

// Spec is the declarative scenario description parsed from
// scenario.json. Zero-valued optional knobs take documented defaults
// at execution time (not at parse time), so a parsed spec marshals
// back to its JSON form unchanged — the round-trip property
// FuzzScenarioSpec enforces.
type Spec struct {
	// Name must match the scenario's directory name.
	Name string `json:"name"`
	// Description is a one-line human summary echoed in the report.
	Description string `json:"description,omitempty"`
	// Pipeline selects the seam to drive: sim, serve, online, fleet.
	Pipeline string `json:"pipeline"`
	// Trace configures trace generation (required unless fleet, which
	// generates per-cluster traces from Fleet instead).
	Trace *TraceSpec `json:"trace,omitempty"`
	// Fleet configures the fleet pipeline (required iff fleet).
	Fleet *FleetSpec `json:"fleet,omitempty"`
	// Train configures every model trained during the run.
	Train TrainSpec `json:"train,omitempty"`
	// Run holds pipeline knobs (quota, online loop settings).
	Run RunSpec `json:"run,omitempty"`
}

// TraceSpec describes the generated workload as one or more segments
// merged on a shared virtual timeline. Multiple segments compose the
// interesting workloads: a drifting mix is two segments with disjoint
// archetype weights at different offsets, a flash crowd is a short
// hot segment overlapping a steady one, a noisy neighbor is an
// aggressive tenant sharing the window with a well-behaved one.
type TraceSpec struct {
	Segments []SegmentSpec `json:"segments"`
	// SplitFrac is where the train/test cut lands as a fraction of the
	// spec's total span (0 = 0.5). The model trains on jobs before the
	// cut; every pipeline evaluates on the jobs at/after it.
	SplitFrac float64 `json:"splitFrac,omitempty"`
}

// SegmentSpec is one generated trace segment: a cluster-shaped
// workload shifted onto the scenario timeline at OffsetDays.
type SegmentSpec struct {
	// Cluster names the segment ("" = "s<index>") and prefixes its job
	// IDs, so no two segments may share a name, explicit or defaulted.
	Cluster string `json:"cluster,omitempty"`
	// Seed drives the segment's generator.
	Seed int64 `json:"seed"`
	// Users is the segment's user population.
	Users int `json:"users"`
	// Days is the segment's own span.
	Days float64 `json:"days"`
	// OffsetDays shifts the segment's arrivals on the shared timeline.
	OffsetDays float64 `json:"offsetDays,omitempty"`
	// MinSteps/MaxSteps bound shuffle steps per pipeline (0 =
	// defaults 1/4). Deep step chains are how the ML-training IO-graph
	// archetype gets its stage-heavy shape.
	MinSteps int `json:"minSteps,omitempty"`
	MaxSteps int `json:"maxSteps,omitempty"`
	// Weights is the archetype mix (nil = uniform). Keys must name
	// built-in archetypes; missing names get weight 0.
	Weights map[string]float64 `json:"weights,omitempty"`
	// LoadScale multiplies arrival rates (0 = 1).
	LoadScale float64 `json:"loadScale,omitempty"`
}

// TrainSpec scales the models a scenario trains.
type TrainSpec struct {
	// Rounds is GBDT boosting rounds (0 = 8).
	Rounds int `json:"rounds,omitempty"`
	// Categories is the importance-category count (0 = 8).
	Categories int `json:"categories,omitempty"`
}

// RunSpec holds the pipeline knobs.
type RunSpec struct {
	// QuotaFrac is the SSD quota as a fraction of the test half's peak
	// simultaneous footprint (0 = 0.05).
	QuotaFrac float64 `json:"quotaFrac,omitempty"`
	// RetrainHours is the online loop's cadence trigger in virtual
	// hours (0 with DriftTV 0 = 12).
	RetrainHours float64 `json:"retrainHours,omitempty"`
	// DriftTV is the online loop's total-variation drift trigger
	// threshold (0 disables).
	DriftTV float64 `json:"driftTV,omitempty"`
	// WindowMax caps the online feedback window (0 = 4096).
	WindowMax int `json:"windowMax,omitempty"`
}

// FleetSpec configures the fleet pipeline.
type FleetSpec struct {
	// Clusters is the fleet size.
	Clusters int `json:"clusters"`
	// Seed is the fleet's base seed.
	Seed int64 `json:"seed"`
	// Days is the per-cluster trace span (half trains, half evaluates).
	Days float64 `json:"days"`
	// Users is the base per-cluster population (0 = 6).
	Users int `json:"users,omitempty"`
	// Online drives the closed learning loop per cluster.
	Online bool `json:"online,omitempty"`
}

// nameRe bounds scenario names to safe directory names.
var nameRe = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

// ParseSpec decodes and validates a scenario.json body. Unknown
// fields, trailing data and out-of-range values are all errors — a
// malformed spec must never reach a pipeline.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec is executable. Bounds are generous but
// finite: a spec that passes cannot make a pipeline panic or run
// effectively forever.
func (s *Spec) Validate() error {
	if !nameRe.MatchString(s.Name) || len(s.Name) > 64 {
		return fmt.Errorf("scenario: invalid name %q (want lowercase [a-z0-9-], <= 64 chars)", s.Name)
	}
	switch s.Pipeline {
	case PipelineSim, PipelineServe, PipelineOnline, PipelineRebalance:
		if s.Fleet != nil {
			return fmt.Errorf("scenario %s: fleet block is only valid with pipeline %q", s.Name, PipelineFleet)
		}
		if s.Trace == nil {
			return fmt.Errorf("scenario %s: pipeline %q requires a trace block", s.Name, s.Pipeline)
		}
		if err := s.Trace.validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	case PipelineFleet:
		if s.Trace != nil {
			return fmt.Errorf("scenario %s: fleet pipeline generates its own traces; drop the trace block", s.Name)
		}
		if s.Fleet == nil {
			return fmt.Errorf("scenario %s: fleet pipeline requires a fleet block", s.Name)
		}
		if err := s.Fleet.validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	default:
		return fmt.Errorf("scenario %s: unknown pipeline %q (want sim|serve|online|fleet|rebalance)", s.Name, s.Pipeline)
	}
	if err := s.Train.validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if err := s.Run.validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return nil
}

func (t *TraceSpec) validate() error {
	if len(t.Segments) == 0 {
		return fmt.Errorf("trace needs at least one segment")
	}
	if len(t.Segments) > 16 {
		return fmt.Errorf("trace has %d segments (max 16)", len(t.Segments))
	}
	if t.SplitFrac < 0 || t.SplitFrac >= 1 {
		return fmt.Errorf("splitFrac %g out of range [0, 1)", t.SplitFrac)
	}
	known := map[string]bool{}
	for _, a := range trace.Archetypes() {
		known[a.Name] = true
	}
	named := map[string]int{} // oracle, policy.Static and rebalance key by job ID
	for i := range t.Segments {
		if err := t.Segments[i].validate(known); err != nil {
			return fmt.Errorf("segment %d: %w", i, err)
		}
		name := t.Segments[i].cluster(i)
		if j, dup := named[name]; dup {
			return fmt.Errorf("segment %d: cluster name %q is segment %d's too (job IDs would repeat)", i, name, j)
		}
		named[name] = i
	}
	return nil
}

// cluster is the name of segment idx: Cluster, or "s<idx>" when unset.
func (g *SegmentSpec) cluster(idx int) string {
	if g.Cluster != "" {
		return g.Cluster
	}
	return fmt.Sprintf("s%d", idx)
}

func (g *SegmentSpec) validate(known map[string]bool) error {
	switch {
	case g.Users < 1 || g.Users > 256:
		return fmt.Errorf("users %d out of range [1, 256]", g.Users)
	case g.Days <= 0 || g.Days > 60:
		return fmt.Errorf("days %g out of range (0, 60]", g.Days)
	case g.OffsetDays < 0 || g.OffsetDays > 120:
		return fmt.Errorf("offsetDays %g out of range [0, 120]", g.OffsetDays)
	case g.MinSteps < 0 || g.MaxSteps < 0 || g.MaxSteps > 32 || g.MinSteps > 32:
		return fmt.Errorf("steps bounds [%d, %d] out of range [0, 32]", g.MinSteps, g.MaxSteps)
	case g.LoadScale < 0 || g.LoadScale > 100:
		return fmt.Errorf("loadScale %g out of range [0, 100]", g.LoadScale)
	}
	// Both-set bounds must be ordered; a zero max defers to defaults.
	if g.MaxSteps > 0 && g.MinSteps > g.MaxSteps {
		return fmt.Errorf("minSteps %d > maxSteps %d", g.MinSteps, g.MaxSteps)
	}
	if g.Cluster != "" && (!nameRe.MatchString(g.Cluster) || len(g.Cluster) > 32) {
		return fmt.Errorf("invalid cluster name %q", g.Cluster)
	}
	var total float64
	for name, w := range g.Weights {
		if !known[name] {
			return fmt.Errorf("unknown archetype %q in weights", name)
		}
		if w < 0 || w > 1e6 {
			return fmt.Errorf("weight %q = %g out of range [0, 1e6]", name, w)
		}
		total += w
	}
	if g.Weights != nil && total <= 0 {
		return fmt.Errorf("weights sum to %g (need a positive mix)", total)
	}
	return nil
}

func (t *TrainSpec) validate() error {
	if t.Rounds < 0 || t.Rounds > 500 {
		return fmt.Errorf("train rounds %d out of range [0, 500]", t.Rounds)
	}
	if t.Categories < 0 || t.Categories == 1 || t.Categories > 100 {
		return fmt.Errorf("train categories %d out of range {0} ∪ [2, 100]", t.Categories)
	}
	return nil
}

func (r *RunSpec) validate() error {
	switch {
	case r.QuotaFrac < 0 || r.QuotaFrac > 1:
		return fmt.Errorf("quotaFrac %g out of range [0, 1]", r.QuotaFrac)
	case r.RetrainHours < 0 || r.RetrainHours > 24*365:
		return fmt.Errorf("retrainHours %g out of range [0, 8760]", r.RetrainHours)
	case r.DriftTV < 0 || r.DriftTV > 1:
		return fmt.Errorf("driftTV %g out of range [0, 1]", r.DriftTV)
	case r.WindowMax < 0 || r.WindowMax == 1 || r.WindowMax > 1<<20:
		return fmt.Errorf("windowMax %d out of range {0} ∪ [2, 1048576]", r.WindowMax)
	}
	return nil
}

func (f *FleetSpec) validate() error {
	switch {
	case f.Clusters < 1 || f.Clusters > 32:
		return fmt.Errorf("fleet clusters %d out of range [1, 32]", f.Clusters)
	case f.Days <= 0 || f.Days > 60:
		return fmt.Errorf("fleet days %g out of range (0, 60]", f.Days)
	case f.Users < 0 || f.Users > 256:
		return fmt.Errorf("fleet users %d out of range [0, 256]", f.Users)
	}
	return nil
}

// Effective-value helpers: zero means "use the documented default".

func (t TrainSpec) rounds() int     { return defInt(t.Rounds, 8) }
func (t TrainSpec) categories() int { return defInt(t.Categories, 8) }

func (r RunSpec) quotaFrac() float64 { return defFloat(r.QuotaFrac, 0.05) }
func (r RunSpec) windowMax() int     { return defInt(r.WindowMax, 4096) }

// retrainSec returns the cadence trigger; when both triggers are left
// unset the loop defaults to a 12-virtual-hour cadence so an online
// scenario always retrains eventually.
func (r RunSpec) retrainSec() float64 {
	if r.RetrainHours == 0 && r.DriftTV == 0 {
		return 12 * 3600
	}
	return r.RetrainHours * 3600
}

func (t TraceSpec) splitFrac() float64 { return defFloat(t.SplitFrac, 0.5) }

// totalDays is the scenario timeline span: the latest segment end.
func (t TraceSpec) totalDays() float64 {
	var end float64
	for _, g := range t.Segments {
		if e := g.OffsetDays + g.Days; e > end {
			end = e
		}
	}
	return end
}

func (f FleetSpec) users() int { return defInt(f.Users, 6) }

func defInt(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}

func defFloat(v, d float64) float64 {
	if v == 0 {
		return d
	}
	return v
}
