package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/golden"
	"repro/internal/registry"
	"repro/internal/router"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// TestSummaryGolden pins the loadgen report format with fixed values —
// scripts parse it.
func TestSummaryGolden(t *testing.T) {
	s := summary{
		Target:       "http://127.0.0.1:7070",
		ModelVersion: 3,
		Codec:        rpc.CodecBinary,
		Conns:        8,
		Chunk:        64,
		TargetQPS:    20000,
		Elapsed:      10*time.Second + 34*time.Millisecond,
		Requests:     3117,
		Placements:   199488,
		Outcomes:     3117,
		Errors:       0,
		Client:       rpc.ClientStats{Requests: 6234, Sheds: 12, Retries: 12, Failures: 0},
		AchievedQPS:  19881.1,
		P50ms:        3.91,
		P95ms:        5.68,
		P99ms:        7.42,
		MaxMs:        14.8,
	}
	var b bytes.Buffer
	writeSummary(&b, s)
	golden.Check(t, "testdata/summary.golden", b.Bytes())

	// The unpaced variant renders "unpaced" instead of a rate.
	s.TargetQPS = 0
	b.Reset()
	writeSummary(&b, s)
	if !strings.Contains(b.String(), "offered:   unpaced over 8 conns") {
		t.Errorf("unpaced summary:\n%s", b.String())
	}
}

// TestSummaryNodesGolden pins the -nodes (plane-routed) report format:
// the routing counters and per-node health lines.
func TestSummaryNodesGolden(t *testing.T) {
	s := summary{
		Target:       "3-node plane via http://127.0.0.1:7070",
		ModelVersion: 2,
		Codec:        rpc.CodecBinary,
		Conns:        8,
		Chunk:        64,
		TargetQPS:    40000,
		Elapsed:      10*time.Second + 12*time.Millisecond,
		Requests:     6240,
		Placements:   399360,
		Outcomes:     6240,
		Errors:       0,
		Client:       rpc.ClientStats{Requests: 18720, Sheds: 4, Retries: 4, Failures: 0},
		Router: router.Stats{
			Batches: 6240, Jobs: 399360, Groups: 24960, Dispatches: 18725,
			Reroutes: 2, Failovers: 1, Failures: 0, Probes: 120, ProbeFailures: 3,
			WeightDecays: 1, Outcomes: 6240,
		},
		Nodes: []router.NodeState{
			{Name: "n0", URL: "http://127.0.0.1:7070", Healthy: true, Weight: 1},
			{Name: "n1", URL: "http://127.0.0.1:7071", Healthy: true, Weight: 0.5},
			{Name: "n2", URL: "http://127.0.0.1:7072", Healthy: false, Weight: 0.25},
		},
		AchievedQPS: 39888.3,
		P50ms:       2.12,
		P95ms:       4.31,
		P99ms:       6.55,
		MaxMs:       21.7,
	}
	var b bytes.Buffer
	writeSummary(&b, s)
	golden.Check(t, "testdata/summary_nodes.golden", b.Bytes())
}

// TestLoadgenAgainstDaemon is the closed-loop smoke: a real daemon on
// a loopback port, a short paced run with outcomes, zero failures.
func TestLoadgenAgainstDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and drives real HTTP load")
	}
	gcfg := trace.DefaultGeneratorConfig("loadgen-test", 5)
	gcfg.DurationSec = 24 * 3600
	gcfg.NumUsers = 4
	tr := trace.NewGenerator(gcfg).Generate()
	cm := cost.Default()
	opts := core.DefaultTrainOptions()
	opts.NumCategories = 4
	opts.GBDT.NumRounds = 3
	opts.GBDT.MaxDepth = 4
	model, err := core.TrainCategoryModel(tr.Jobs, cm, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	if _, err := reg.Publish("w", model, 0); err != nil {
		t.Fatal(err)
	}
	d, err := rpc.NewDaemon(reg, "w", cm, rpc.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	// One short run per codec: JSON over HTTP, and binary frames on the
	// client's pooled stream sessions — against the same daemon.
	modes := []struct {
		name  string
		extra []string
		want  string
	}{
		{"json", nil, "json codec"},
		{"binary", []string{"-codec", "binary"}, "binary codec"},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			args := append([]string{
				"-addr", d.Addr(), "-qps", "2000", "-conns", "2", "-chunk", "16",
				"-duration", "500ms", "-days", "0.2", "-users", "3", "-outcomes",
			}, m.extra...)
			var out bytes.Buffer
			if err := run(context.Background(), args, &out); err != nil {
				t.Fatalf("loadgen: %v\n%s", err, out.String())
			}
			for _, want := range []string{"loadgen summary", m.want, "achieved:", "latency:   p50", " 0 failures, 0 request errors"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output missing %q:\n%s", want, out.String())
				}
			}
		})
	}
	if d.Stats().PlaceJobs == 0 {
		t.Error("daemon served no placements during the load run")
	}
	if d.Stats().OutcomeRequests == 0 {
		t.Error("-outcomes posted no feedback")
	}
	if d.Stats().PlaceBinary == 0 || d.Stats().PlaceJSON == 0 {
		t.Errorf("daemon counted %d binary / %d json places, want both > 0",
			d.Stats().PlaceBinary, d.Stats().PlaceJSON)
	}
	if d.Stats().StreamSessions == 0 {
		t.Error("the binary run opened no stream sessions")
	}
}

// TestLoadgenAgainstPlane drives a live 2-node plane through the
// -nodes routed mode: zero failures, both nodes share the load, and
// the summary reports routing state.
func TestLoadgenAgainstPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and starts a 2-node plane")
	}
	gcfg := trace.DefaultGeneratorConfig("loadgen-plane", 7)
	gcfg.DurationSec = 24 * 3600
	gcfg.NumUsers = 4
	tr := trace.NewGenerator(gcfg).Generate()
	cm := cost.Default()
	opts := core.DefaultTrainOptions()
	opts.NumCategories = 4
	opts.GBDT.NumRounds = 3
	opts.GBDT.MaxDepth = 4
	model, err := core.TrainCategoryModel(tr.Jobs, cm, opts)
	if err != nil {
		t.Fatal(err)
	}
	src := registry.New()
	if _, err := src.Publish("m", model, 0); err != nil {
		t.Fatal(err)
	}
	plane, err := router.NewPlane(src, "m", cm, rpc.DefaultConfig(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()

	nodes := strings.Join(plane.Members(), ",")
	var out bytes.Buffer
	args := []string{
		"-nodes", nodes, "-qps", "2000", "-conns", "2", "-chunk", "16",
		"-duration", "500ms", "-days", "0.2", "-users", "3", "-codec", "binary",
		"-outcomes",
	}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("loadgen: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"loadgen summary", "2-node plane via", "routing:", "over 2 nodes",
		" 0 failures, 0 request errors", "node:      0=http://",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), " 0 outcomes\n") {
		t.Errorf("routed run posted no outcomes:\n%s", out.String())
	}
	served := 0
	var outcomeReqs int64
	for i := 0; i < 2; i++ {
		if plane.Node(i).Stats().PlaceJobs > 0 {
			served++
		}
		outcomeReqs += plane.Node(i).Stats().OutcomeRequests
	}
	if served != 2 {
		t.Errorf("%d of 2 plane nodes served placements, want both", served)
	}
	// The routed feedback path: every posted outcome must have landed on
	// a plane daemon's /v1/outcome (routed by template, zero failures).
	if outcomeReqs == 0 {
		t.Errorf("no outcome requests landed on the plane daemons")
	}
}

func TestLoadgenRejectsBadFlags(t *testing.T) {
	ctx := context.Background()
	var buf bytes.Buffer
	if err := run(ctx, nil, &buf); err == nil {
		t.Error("missing -addr accepted")
	}
	if err := run(ctx, []string{"-addr", "h:1", "-conns", "0"}, &buf); err == nil {
		t.Error("zero conns accepted")
	}
	if err := run(ctx, []string{"-addr", "h:1", "-codec", "binary", "-stream"}, &buf); err == nil {
		t.Error("the removed -stream flag accepted")
	}
	if err := run(ctx, []string{"-addr", "h:1", "-codec", "xml"}, &buf); err == nil {
		t.Error("unknown codec accepted")
	}
	if err := run(ctx, []string{"-addr", "127.0.0.1:9", "-duration", "10ms"}, &buf); err == nil {
		t.Error("unreachable daemon accepted (probe should fail)")
	}
	if err := run(ctx, []string{"-bogus"}, &buf); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run(ctx, []string{"-nodes", "h:1", "-addr", "h:2"}, &buf); err == nil {
		t.Error("-nodes with -addr accepted")
	}
}
