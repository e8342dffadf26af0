package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// tinySpec renders a fast sim scenario for runner tests: half a
// virtual day, two users, a two-round model.
func tinySpec(name string) string {
	return fmt.Sprintf(`{
  "name": %q,
  "pipeline": "sim",
  "trace": {"segments": [{"cluster": "t", "seed": 3, "users": 2, "days": 0.5}]},
  "train": {"rounds": 2, "categories": 2},
  "run": {"quotaFrac": 0.1}
}`, name)
}

// writePkg lays out one scenario package under root.
func writePkg(t *testing.T, root, name, spec, thresholds string) string {
	t.Helper()
	dir := filepath.Join(root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, SpecFile), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if thresholds != "" {
		if err := os.WriteFile(filepath.Join(dir, ThresholdsFile), []byte(thresholds), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestDiscover(t *testing.T) {
	root := t.TempDir()
	writePkg(t, root, "beta", tinySpec("beta"), "")
	writePkg(t, root, "alpha", tinySpec("alpha"), `{"min_tco_pct": 0}`)
	// Hidden directories are skipped, not errors.
	if err := os.MkdirAll(filepath.Join(root, ".git"), 0o755); err != nil {
		t.Fatal(err)
	}
	pkgs, err := Discover(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 || pkgs[0].Name != "alpha" || pkgs[1].Name != "beta" {
		t.Fatalf("want [alpha beta], got %v", pkgs)
	}
	if pkgs[0].Thresholds == nil || pkgs[1].Thresholds != nil {
		t.Fatalf("thresholds loaded wrong: %+v %+v", pkgs[0].Thresholds, pkgs[1].Thresholds)
	}
}

func TestDiscoverErrors(t *testing.T) {
	if _, err := Discover(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing root accepted")
	}
	empty := t.TempDir()
	if _, err := Discover(empty); err == nil {
		t.Fatal("empty root accepted")
	}

	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "bare"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Discover(root); err == nil {
		t.Fatal("subdirectory without scenario.json accepted")
	}

	root = t.TempDir()
	writePkg(t, root, "dir-name", tinySpec("other-name"), "")
	_, err := Discover(root)
	if err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("name mismatch not rejected: %v", err)
	}

	root = t.TempDir()
	writePkg(t, root, "badth", tinySpec("badth"), `{"bogus": 1}`)
	if _, err := Discover(root); err == nil {
		t.Fatal("malformed thresholds accepted")
	}
}

func TestRunAllUpdateThenCompare(t *testing.T) {
	root := t.TempDir()
	dir := writePkg(t, root, "tiny", tinySpec("tiny"), "")

	// First run without a golden must fail and point at -update.
	out, err := RunAll(RunnerConfig{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Passed() || out[0].GoldenErr == nil ||
		!strings.Contains(out[0].GoldenErr.Error(), "-update") {
		t.Fatalf("missing golden not flagged: %+v", out[0])
	}
	if out[0].Status() != "FAIL" {
		t.Fatalf("status = %s, want FAIL", out[0].Status())
	}

	// Update writes the golden; the run still passes thresholds.
	out, err = RunAll(RunnerConfig{Dir: root, Update: true})
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Passed() || !out[0].Updated {
		t.Fatalf("update run: %+v", out[0])
	}
	first, err := os.ReadFile(filepath.Join(dir, GoldenFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("empty golden written")
	}

	// A plain re-run passes; a second -update regenerates byte-identically.
	out, _ = RunAll(RunnerConfig{Dir: root})
	if !out[0].Passed() {
		t.Fatalf("clean re-run failed: %v", out[0].Failures())
	}
	out, _ = RunAll(RunnerConfig{Dir: root, Update: true})
	if !out[0].Passed() {
		t.Fatalf("second update failed: %v", out[0].Failures())
	}
	second, err := os.ReadFile(filepath.Join(dir, GoldenFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatalf("-update is not byte-stable:\n%s\n---\n%s", first, second)
	}

	// A corrupted golden fails the diff.
	if err := os.WriteFile(filepath.Join(dir, GoldenFile), append([]byte("x"), first...), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _ = RunAll(RunnerConfig{Dir: root})
	if out[0].Passed() || out[0].GoldenErr == nil {
		t.Fatalf("golden diff not flagged: %+v", out[0])
	}
}

func TestRunAllFilter(t *testing.T) {
	root := t.TempDir()
	writePkg(t, root, "keep", tinySpec("keep"), "")
	writePkg(t, root, "drop", tinySpec("drop"), "")
	out, err := RunAll(RunnerConfig{Dir: root, Filter: regexp.MustCompile(`^keep$`), Update: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Pkg.Name != "keep" {
		t.Fatalf("filter kept %v", out)
	}
	if _, err := RunAll(RunnerConfig{Dir: root, Filter: regexp.MustCompile(`^none$`)}); err == nil {
		t.Fatal("empty filter match accepted")
	}
}

func TestRunAllThresholdViolation(t *testing.T) {
	root := t.TempDir()
	writePkg(t, root, "gated", tinySpec("gated"), `{"min_tco_pct": 99.9}`)
	out, err := RunAll(RunnerConfig{Dir: root, Update: true})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Passed() || len(out[0].Violations) == 0 {
		t.Fatalf("impossible threshold passed: %+v", out[0])
	}
	if out[0].Status() != "FAIL" {
		t.Fatalf("status = %s, want FAIL", out[0].Status())
	}
	found := false
	for _, f := range out[0].Failures() {
		if strings.Contains(f, "TCO savings") && strings.Contains(f, "99.9") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violation text missing: %v", out[0].Failures())
	}
}

// TestFleetSpecOnline drives the online fleet from a spec, the one CLI
// path to it: the run's Retrains and Swaps are the sums of the
// per-cluster retrains and swaps columns of its report.
func TestFleetSpecOnline(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
  "name": "fleet-online",
  "pipeline": "fleet",
  "fleet": {"clusters": 2, "seed": 7, "days": 2, "users": 6, "online": true},
  "train": {"rounds": 4, "categories": 5},
  "run": {"retrainHours": 8}
}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	clusterRow := regexp.MustCompile(`^C\d+$`)
	var retrains, swaps int64
	rows := 0
	for _, line := range strings.Split(string(res.Report), "\n") {
		f := strings.Fields(line)
		if len(f) != 10 || !clusterRow.MatchString(f[0]) {
			continue
		}
		var r, s int64
		if _, err := fmt.Sscan(f[7], &r); err != nil {
			t.Fatalf("retrains cell %q: %v", f[7], err)
		}
		if _, err := fmt.Sscan(f[8], &s); err != nil {
			t.Fatalf("swaps cell %q: %v", f[8], err)
		}
		retrains += r
		swaps += s
		rows++
	}
	if rows != 2 {
		t.Fatalf("report has %d cluster rows, want 2:\n%s", rows, res.Report)
	}
	if res.Stats.Retrains != retrains || res.Stats.Swaps != swaps {
		t.Errorf("stats %d retrains, %d swaps; report columns sum to %d, %d:\n%s",
			res.Stats.Retrains, res.Stats.Swaps, retrains, swaps, res.Report)
	}
	if retrains == 0 || swaps == 0 {
		t.Errorf("online loop never fired: %d retrains, %d swaps", retrains, swaps)
	}
}
