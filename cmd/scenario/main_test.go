package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSuite lays out a one-scenario suite and returns its root and
// the scenario directory.
func writeSuite(t *testing.T, thresholds string) (root, dir string) {
	t.Helper()
	root = t.TempDir()
	dir = filepath.Join(root, "tiny")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := `{
  "name": "tiny",
  "pipeline": "sim",
  "trace": {"segments": [{"cluster": "t", "seed": 3, "users": 2, "days": 0.5}]},
  "train": {"rounds": 2, "categories": 2},
  "run": {"quotaFrac": 0.1}
}`
	if err := os.WriteFile(filepath.Join(dir, "scenario.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if thresholds != "" {
		if err := os.WriteFile(filepath.Join(dir, "thresholds.json"), []byte(thresholds), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root, dir
}

func TestRunUpdateThenPass(t *testing.T) {
	root, dir := writeSuite(t, "")
	var out bytes.Buffer
	if err := run([]string{"-dir", root, "-update"}, &out); err != nil {
		t.Fatalf("update run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "PASS (golden updated) tiny") {
		t.Fatalf("missing updated-pass line:\n%s", out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "report.golden")); err != nil {
		t.Fatalf("golden not written: %v", err)
	}

	out.Reset()
	if err := run([]string{"-dir", root}, &out); err != nil {
		t.Fatalf("clean run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "PASS tiny") ||
		!strings.Contains(out.String(), "scenario suite: 1 passed, 0 failed (1 run)") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

func TestRunFailsWithoutGolden(t *testing.T) {
	root, _ := writeSuite(t, "")
	var out bytes.Buffer
	err := run([]string{"-dir", root}, &out)
	if !errors.Is(err, errFailed) {
		t.Fatalf("want errFailed, got %v", err)
	}
	if !strings.Contains(out.String(), "FAIL tiny") ||
		!strings.Contains(out.String(), "-update") {
		t.Fatalf("missing golden not reported:\n%s", out.String())
	}
}

func TestRunFailsOnGoldenDiff(t *testing.T) {
	root, dir := writeSuite(t, "")
	var out bytes.Buffer
	if err := run([]string{"-dir", root, "-update"}, &out); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join(dir, "report.golden")
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(golden, append([]byte("drifted\n"), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = run([]string{"-dir", root}, &out)
	if !errors.Is(err, errFailed) {
		t.Fatalf("want errFailed, got %v", err)
	}
	if !strings.Contains(out.String(), "FAIL tiny") ||
		!strings.Contains(out.String(), "scenario suite: 0 passed, 1 failed (1 run)") {
		t.Fatalf("diff failure not reported:\n%s", out.String())
	}
}

// TestRunFailsOnTightenedThreshold pins the regression-gate acceptance
// behavior: tightening a threshold past the recorded result makes the
// command fail and name the scenario in its summary.
func TestRunFailsOnTightenedThreshold(t *testing.T) {
	root, _ := writeSuite(t, `{"min_tco_pct": 99.9}`)
	var out bytes.Buffer
	err := run([]string{"-dir", root, "-update"}, &out)
	if !errors.Is(err, errFailed) {
		t.Fatalf("want errFailed, got %v", err)
	}
	if !strings.Contains(out.String(), "FAIL tiny") ||
		!strings.Contains(out.String(), "below threshold 99.900%") {
		t.Fatalf("threshold failure not reported:\n%s", out.String())
	}
}

func TestRunBadInputs(t *testing.T) {
	if err := run([]string{"-dir", filepath.Join(t.TempDir(), "nope")}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing dir accepted")
	}
	root, _ := writeSuite(t, "")
	if err := run([]string{"-dir", root, "-run", "("}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "bad -run regexp") {
		t.Fatal("bad regexp accepted")
	}
	if err := run([]string{"-dir", root, "-run", "nomatch"}, &bytes.Buffer{}); err == nil {
		t.Fatal("empty filter match accepted")
	}
}
