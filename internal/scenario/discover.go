package scenario

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// File names a scenario package may contain.
const (
	SpecFile       = "scenario.json"
	GoldenFile     = "report.golden"
	ThresholdsFile = "thresholds.json"
)

// Package is one discovered scenario directory.
type Package struct {
	// Name is the directory name (== Spec.Name).
	Name string
	// Dir is the scenario directory path.
	Dir string
	// Spec is the parsed, validated spec.
	Spec *Spec
	// Thresholds is nil when the package has no thresholds.json.
	Thresholds *Thresholds
}

// GoldenPath is where the package's expected report lives.
func (p *Package) GoldenPath() string { return filepath.Join(p.Dir, GoldenFile) }

// Discover walks root's immediate subdirectories and loads every
// scenario package, sorted by name. A subdirectory without a
// scenario.json, a spec that fails validation, a spec whose name
// disagrees with its directory, or a malformed thresholds.json are
// all hard errors: a broken corpus entry must fail the run loudly,
// not silently shrink the suite. Hidden directories are skipped.
func Discover(root string) ([]*Package, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("scenario: discovering %s: %w", root, err)
	}
	var pkgs []*Package
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		pkg, err := Load(filepath.Join(root, e.Name()))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("scenario: no scenario packages under %s", root)
	}
	slices.SortFunc(pkgs, func(a, b *Package) int { return cmp.Compare(a.Name, b.Name) })
	return pkgs, nil
}

// Load reads one scenario package directory.
func Load(dir string) (*Package, error) {
	name := filepath.Base(dir)
	data, err := os.ReadFile(filepath.Join(dir, SpecFile))
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	spec, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	if spec.Name != name {
		return nil, fmt.Errorf("scenario %s: spec name %q disagrees with directory name", name, spec.Name)
	}
	pkg := &Package{Name: name, Dir: dir, Spec: spec}
	tdata, err := os.ReadFile(filepath.Join(dir, ThresholdsFile))
	switch {
	case err == nil:
		th, err := ParseThresholds(tdata)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", name, err)
		}
		pkg.Thresholds = th
	case os.IsNotExist(err):
		// Thresholds are optional.
	default:
		return nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	return pkg, nil
}

// Thresholds gate a scenario on its measured stats. Nil fields are
// unchecked; pointer fields distinguish "no bound" from a zero bound.
// The TCO/TCIO bounds are deterministic regression gates; the
// throughput and latency bounds are wall-clock and should be set with
// generous slack for the slowest CI runner.
type Thresholds struct {
	// MinTCOPct is the minimum acceptable TCO savings percent.
	MinTCOPct *float64 `json:"min_tco_pct,omitempty"`
	// MinTCIOPct is the minimum acceptable TCIO savings percent.
	MinTCIOPct *float64 `json:"min_tcio_pct,omitempty"`
	// MinJobsPerSec is the minimum replay throughput.
	MinJobsPerSec *float64 `json:"min_jobs_per_sec,omitempty"`
	// MaxP99Ms caps the p99 per-decision latency (serve pipeline).
	MaxP99Ms *float64 `json:"max_p99_ms,omitempty"`
}

// ParseThresholds decodes and validates a thresholds.json body.
func ParseThresholds(data []byte) (*Thresholds, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var t Thresholds
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("scenario: parsing thresholds: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after thresholds")
	}
	return &t, nil
}

// Check returns one violation string per failed bound, empty when the
// stats clear every configured threshold.
func (t *Thresholds) Check(s Stats) []string {
	if t == nil {
		return nil
	}
	var out []string
	if t.MinTCOPct != nil && s.TCOPct < *t.MinTCOPct {
		out = append(out, fmt.Sprintf("TCO savings %.3f%% below threshold %.3f%%", s.TCOPct, *t.MinTCOPct))
	}
	if t.MinTCIOPct != nil && s.TCIOPct < *t.MinTCIOPct {
		out = append(out, fmt.Sprintf("TCIO savings %.3f%% below threshold %.3f%%", s.TCIOPct, *t.MinTCIOPct))
	}
	if t.MinJobsPerSec != nil && s.JobsPerSec < *t.MinJobsPerSec {
		out = append(out, fmt.Sprintf("throughput %.0f jobs/s below threshold %.0f", s.JobsPerSec, *t.MinJobsPerSec))
	}
	if t.MaxP99Ms != nil && s.P99Ms > *t.MaxP99Ms {
		out = append(out, fmt.Sprintf("p99 %.2f ms above threshold %.2f ms", s.P99Ms, *t.MaxP99Ms))
	}
	return out
}
