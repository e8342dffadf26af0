package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/byom"
	"repro/internal/golden"
)

// TestRunGolden pins the whole report on a small seeded trace: the
// quantile rows, the log10 I/O-density histogram and the pipeline table.
// The golden was written by the command as it was before its density
// histogram was inlined, and is compared, never rewritten, even under
// UPDATE_GOLDEN.
func TestRunGolden(t *testing.T) {
	cfg := byom.DefaultGeneratorConfig("stats-test", 3)
	cfg.DurationSec = 24 * 3600
	cfg.NumUsers = 4
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if err := byom.SaveTrace(path, byom.GenerateCluster(cfg)); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run([]string{"-trace", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := golden.Compare("testdata/tracestats.golden", []byte(buf.String())); err != nil {
		t.Errorf("%v\nThe golden is the earlier command's output: fix the command, not the file.", err)
	}
}

func TestRunErrors(t *testing.T) {
	var buf strings.Builder
	if err := run(nil, &buf); err == nil {
		t.Error("missing -trace accepted")
	}
	if err := run([]string{"-trace", "does-not-exist.jsonl"}, &buf); err == nil {
		t.Error("unreadable trace accepted")
	}
	if err := run([]string{"-bogus-flag"}, &buf); err == nil {
		t.Error("unknown flag accepted")
	}
}
