package main

import (
	"bytes"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestUnknownFigListsIDs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	var ids []string
	for _, r := range experiments.Runners {
		ids = append(ids, r.ID)
	}
	if len(ids) != 23 {
		t.Errorf("%d runners, want 23", len(ids))
	}
	sort.Strings(ids)
	want := `experiments: unknown id "nope"; available: all [` + strings.Join(ids, " ") + "]\n"
	if stderr.String() != want {
		t.Errorf("stderr:\n%s\nwant:\n%s", stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout: %q", stdout.String())
	}
}

func TestQuickFig1PrintsItsPin(t *testing.T) {
	pin, err := os.ReadFile("../../internal/experiments/testdata/fig1.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-fig", "fig1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	const header = "\n######## fig1 — workload diversity\n"
	if !strings.HasPrefix(out, header) {
		t.Fatalf("output does not start with the header:\n%s", out)
	}
	body, done := out[len(header):], ""
	if i := strings.LastIndex(body, "[fig1 done in "); i >= 0 {
		body, done = body[:i], body[i:]
	}
	if body != string(pin) {
		t.Errorf("render differs from testdata/fig1.golden:\n%s", body)
	}
	if !regexp.MustCompile(`^\[fig1 done in [0-9]+\.[0-9]s\]\n$`).MatchString(done) {
		t.Errorf("last line %q, want a done-in line", done)
	}
}
