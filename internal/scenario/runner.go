package scenario

import (
	"fmt"
	"regexp"

	"repro/internal/golden"
	"repro/internal/par"
)

// RunnerConfig controls a suite run.
type RunnerConfig struct {
	// Dir is the scenarios root (each subdirectory is one package).
	Dir string
	// Filter restricts the run to matching scenario names (nil = all).
	Filter *regexp.Regexp
	// Workers bounds the scenario worker pool (0 = GOMAXPROCS).
	// Reports are bit-identical at any value: scenarios share no
	// mutable state, so parallelism trades wall clock only.
	Workers int
	// Update rewrites each scenario's report.golden with the run's
	// report instead of diffing against it. Thresholds still apply.
	Update bool
}

// Outcome is one scenario's suite verdict.
type Outcome struct {
	Pkg *Package
	// Result is nil when Err is set.
	Result *RunResult
	// Err is a pipeline execution error.
	Err error
	// GoldenErr is the golden diff (or missing-golden) failure.
	GoldenErr error
	// Violations are failed threshold bounds.
	Violations []string
	// Updated reports that the golden file was rewritten.
	Updated bool
}

// Passed reports whether the scenario cleared execution, golden and
// thresholds.
func (o *Outcome) Passed() bool {
	return o.Err == nil && o.GoldenErr == nil && len(o.Violations) == 0
}

// Status renders the verdict for summaries and the bench history:
// PASS, FAIL (golden or threshold) or ERROR (pipeline failure).
func (o *Outcome) Status() string {
	switch {
	case o.Err != nil:
		return "ERROR"
	case !o.Passed():
		return "FAIL"
	default:
		return "PASS"
	}
}

// Failures flattens the outcome's problems into printable lines.
func (o *Outcome) Failures() []string {
	var out []string
	if o.Err != nil {
		out = append(out, o.Err.Error())
	}
	if o.GoldenErr != nil {
		out = append(out, o.GoldenErr.Error())
	}
	out = append(out, o.Violations...)
	return out
}

// RunAll discovers, filters and executes the suite on a bounded
// worker pool, returning outcomes in discovery (name) order
// regardless of completion order. Per-scenario failures land in the
// outcome, not the error: one broken scenario must not hide the
// others' results. The error covers discovery problems and an empty
// filter match.
func RunAll(cfg RunnerConfig) ([]*Outcome, error) {
	pkgs, err := Discover(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if cfg.Filter != nil {
		var keep []*Package
		for _, p := range pkgs {
			if cfg.Filter.MatchString(p.Name) {
				keep = append(keep, p)
			}
		}
		if len(keep) == 0 {
			return nil, fmt.Errorf("scenario: no scenarios match %q", cfg.Filter)
		}
		pkgs = keep
	}
	// Each scenario writes only its own slot, so any worker count yields
	// identical outcomes; a failure lands in the slot, never in Each's
	// error.
	outcomes := make([]*Outcome, len(pkgs))
	par.Each(len(pkgs), cfg.Workers, func(i int) error {
		outcomes[i] = runOne(pkgs[i], cfg.Update)
		return nil
	})
	return outcomes, nil
}

// runOne executes a single package and applies its golden and
// threshold gates.
func runOne(pkg *Package, update bool) *Outcome {
	o := &Outcome{Pkg: pkg}
	res, err := Execute(pkg.Spec)
	if err != nil {
		o.Err = err
		return o
	}
	o.Result = res
	if update {
		if err := golden.Write(pkg.GoldenPath(), res.Report); err != nil {
			o.Err = fmt.Errorf("scenario %s: %w", pkg.Name, err)
			return o
		}
		o.Updated = true
	} else if err := golden.Compare(pkg.GoldenPath(), res.Report); err != nil {
		o.GoldenErr = err
	}
	o.Violations = pkg.Thresholds.Check(res.Stats)
	return o
}
