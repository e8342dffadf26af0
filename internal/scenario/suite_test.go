package scenario

import (
	"bytes"
	"regexp"
	"testing"
)

// repoScenarios is the checked-in corpus at the repository root.
const repoScenarios = "../../scenarios"

// shortSubset keeps -short runs (the CI race job runs every package
// with -short) to two cheap scenarios covering both a sim and a serve
// seam; full runs take the whole corpus.
var shortSubset = regexp.MustCompile(`^(diurnal-burst|log-ingest)$`)

// Deterministic returns a copy with the wall-clock-derived fields
// zeroed: the part of Stats that must be identical across runs and
// worker counts.
func (s Stats) Deterministic() Stats {
	s.JobsPerSec, s.P99Ms, s.WallMs = 0, 0, 0
	return s
}

// TestAllSpecsParse asserts the checked-in corpus is wholly loadable:
// every scenarios/*/scenario.json parses and validates, the suite is
// at least six scenarios strong, and all five pipeline seams appear.
// CI runs this as its spec-parse gate.
func TestAllSpecsParse(t *testing.T) {
	pkgs, err := Discover(repoScenarios)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 6 {
		t.Fatalf("corpus has %d scenarios, want >= 6", len(pkgs))
	}
	seams := map[string]bool{}
	for _, p := range pkgs {
		seams[p.Spec.Pipeline] = true
	}
	for _, want := range []string{PipelineSim, PipelineServe, PipelineOnline, PipelineFleet, PipelineRebalance} {
		if !seams[want] {
			t.Errorf("no scenario drives the %s pipeline", want)
		}
	}
}

// TestScenarioSuite runs the full checked-in corpus against its golden
// reports and thresholds, exactly as cmd/scenario does in CI.
func TestScenarioSuite(t *testing.T) {
	cfg := RunnerConfig{Dir: repoScenarios, Workers: 2}
	if testing.Short() {
		cfg.Filter = shortSubset
	}
	out, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range out {
		if !o.Passed() {
			t.Errorf("%s %s: %v", o.Status(), o.Pkg.Name, o.Failures())
		}
	}
}

// TestScenarioRunnerDeterminism is the suite's core contract: rendered
// reports and the deterministic half of Stats are identical at any
// worker count — both as structures and as bytes.
func TestScenarioRunnerDeterminism(t *testing.T) {
	cfg := RunnerConfig{Dir: repoScenarios}
	workers := []int{1, 2, 8}
	if testing.Short() {
		cfg.Filter = shortSubset
		workers = []int{1, 2}
	}

	runs := make([][]*Outcome, len(workers))
	for i, w := range workers {
		cfg.Workers = w
		out, err := RunAll(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for _, o := range out {
			if o.Err != nil {
				t.Fatalf("workers=%d %s: %v", w, o.Pkg.Name, o.Err)
			}
		}
		runs[i] = out
	}

	base := runs[0]
	for i := 1; i < len(runs); i++ {
		out := runs[i]
		if len(out) != len(base) {
			t.Fatalf("workers=%d ran %d scenarios, workers=%d ran %d",
				workers[i], len(out), workers[0], len(base))
		}
		for j, o := range out {
			b := base[j]
			if o.Pkg.Name != b.Pkg.Name {
				t.Fatalf("scenario order diverged: %s vs %s", o.Pkg.Name, b.Pkg.Name)
			}
			if !bytes.Equal(o.Result.Report, b.Result.Report) {
				t.Errorf("%s: report bytes differ between workers=%d and workers=%d",
					o.Pkg.Name, workers[0], workers[i])
			}
			if o.Result.Stats.Deterministic() != b.Result.Stats.Deterministic() {
				t.Errorf("%s: deterministic stats differ: %+v vs %+v", o.Pkg.Name,
					b.Result.Stats.Deterministic(), o.Result.Stats.Deterministic())
			}
		}
	}
}
