package main

import (
	"context"
	"strings"
	"testing"

	"repro/internal/golden"
)

func TestRunFleetSmoke(t *testing.T) {
	var buf strings.Builder
	err := run(context.Background(), []string{"-clusters", "2", "-days", "1", "-users", "4",
		"-rounds", "4", "-categories", "5", "-online"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, needle := range []string{
		"per-cluster TCO%", "fleet aggregate", "fleet totals",
		"fleet_clusters_done 2", "fleet_online_retrains",
	} {
		if !strings.Contains(out, needle) {
			t.Fatalf("output missing %q:\n%s", needle, out)
		}
	}
}

// TestRunFleetRebalanceGolden pins the whole -rebalance report: every
// TCO column and the rebalancer's solve, demotion and eviction totals.
// The golden was written by the command as it was when the residency
// plan still went through the simplex, and is compared, never
// rewritten, even under UPDATE_GOLDEN.
func TestRunFleetRebalanceGolden(t *testing.T) {
	var buf strings.Builder
	err := run(context.Background(), []string{"-clusters", "2", "-days", "1", "-users", "4",
		"-rounds", "4", "-categories", "5", "-rebalance"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := golden.Compare("testdata/rebalance.golden", []byte(buf.String())); err != nil {
		t.Errorf("%v\nThe golden is the earlier command's output: fix the command, not the file.", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	ctx := context.Background()
	var buf strings.Builder
	if err := run(ctx, []string{"-clusters", "zero"}, &buf); err == nil {
		t.Fatal("bad flag value accepted")
	}
	if err := run(ctx, []string{"-donor", "9", "-clusters", "2", "-days", "1", "-users", "4"}, &buf); err == nil {
		t.Fatal("out-of-range donor accepted")
	}
}

// TestRunCancelled checks the SIGINT path: a pre-cancelled context
// stops the fleet run before any cluster shard starts.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf strings.Builder
	err := run(ctx, []string{"-clusters", "2", "-days", "1", "-users", "4"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("err = %v, want context cancellation", err)
	}
}
