package dataflow

import (
	"math"
	"strings"
	"testing"

	"repro/internal/desched"
	"repro/internal/dfs"
	"repro/internal/trace"
)

// DefaultShuffleProfile is a moderate shuffle.
func DefaultShuffleProfile() ShuffleProfile {
	return ShuffleProfile{
		SizeFactor:   1,
		WriteAmp:     2,
		ReadFactor:   1.5,
		ReadOpBytes:  256 * 1024,
		CacheHitFrac: 0.3,
	}
}

func buildPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := NewPipeline("wordcount", "alice").
		ParDo("parse").
		GroupByKey("by-word", DefaultShuffleProfile()).
		ParDoScale("count", 0.1).
		GroupByKey("by-count", ShuffleProfile{
			SizeFactor: 1, WriteAmp: 1.5, ReadFactor: 4,
			ReadOpBytes: 64 * 1024, CacheHitFrac: 0.2,
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func spec(t *testing.T, p *Pipeline) WorkloadSpec {
	t.Helper()
	return WorkloadSpec{
		Pipeline:         p,
		InputBytes:       1 << 30,
		NumWorkers:       8,
		WorkerThreads:    4,
		RecordBytes:      512,
		ComputeSecPerGiB: 2,
	}
}

func newEnv(t *testing.T, capacity float64, d dfs.Decider) (*dfs.Cluster, *Executor) {
	t.Helper()
	cluster, err := dfs.NewCluster(capacity, d)
	if err != nil {
		t.Fatal(err)
	}
	return cluster, NewExecutor(dfs.NewClient(cluster), nil)
}

// runAt executes s as the only process of a fresh scheduler, starting
// at virtual time at.
func runAt(ex *Executor, s WorkloadSpec, at float64) (*Report, error) {
	var rep *Report
	var err error
	des := desched.New()
	des.Spawn(at, func(p *desched.Proc) { rep, err = ex.Run(s, p) })
	des.Run()
	return rep, err
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewPipeline("", "u").ParDo("x").Build(); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewPipeline("p", "u").Build(); err == nil {
		t.Error("empty pipeline accepted")
	}
	if _, err := NewPipeline("p", "u").GroupByKey("s", ShuffleProfile{}).Build(); err == nil {
		t.Error("invalid shuffle profile accepted")
	}
}

func TestSpecValidation(t *testing.T) {
	p := buildPipeline(t)
	good := spec(t, p)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []func(*WorkloadSpec){
		func(s *WorkloadSpec) { s.Pipeline = nil },
		func(s *WorkloadSpec) { s.InputBytes = 0 },
		func(s *WorkloadSpec) { s.NumWorkers = 0 },
		func(s *WorkloadSpec) { s.WorkerThreads = 0 },
		func(s *WorkloadSpec) { s.RecordBytes = 0 },
	}
	for i, mutate := range cases {
		s := spec(t, p)
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestRunProducesShuffleRecords(t *testing.T) {
	p := buildPipeline(t)
	_, ex := newEnv(t, 1e12, dfs.StaticDecider(true))
	rep, err := runAt(ex, spec(t, p), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shuffles) != 2 {
		t.Fatalf("shuffles = %d, want 2", len(rep.Shuffles))
	}
	if rep.Runtime() <= 0 {
		t.Errorf("runtime = %g", rep.Runtime())
	}
	first := rep.Shuffles[0]
	if first.Job.SizeBytes != 1<<30 {
		t.Errorf("first shuffle footprint = %g, want %d", first.Job.SizeBytes, 1<<30)
	}
	// Second shuffle input is scaled by the ParDoScale(0.1).
	second := rep.Shuffles[1]
	if math.Abs(second.Job.SizeBytes-0.1*(1<<30)) > 1 {
		t.Errorf("second shuffle footprint = %g, want %g", second.Job.SizeBytes, 0.1*float64(1<<30))
	}
	if first.FracOnSSD != 1 {
		t.Errorf("frac on SSD = %g with huge capacity", first.FracOnSSD)
	}
	// Realized I/O: writes = footprint * WriteAmp.
	if math.Abs(first.Job.WriteBytes-2*(1<<30)) > 1 {
		t.Errorf("writes = %g, want %g", first.Job.WriteBytes, 2.0*(1<<30))
	}
	// Reads = read-back + sorter read.
	wantReads := 1.5*(1<<30) + 1<<30
	if math.Abs(first.Job.ReadBytes-wantReads) > 1 {
		t.Errorf("reads = %g, want %g", first.Job.ReadBytes, wantReads)
	}
	if err := first.Job.Validate(); err != nil {
		t.Errorf("realized job invalid: %v", err)
	}
}

func TestRunReleasesSSDSpace(t *testing.T) {
	p := buildPipeline(t)
	cluster, ex := newEnv(t, 1e12, dfs.StaticDecider(true))
	if _, err := runAt(ex, spec(t, p), 0); err != nil {
		t.Fatal(err)
	}
	if used := cluster.SSDUsed(); used != 0 {
		t.Errorf("SSD still holds %g bytes after execution", used)
	}
	m := cluster.Metrics()
	// One intermediate file per worker per shuffle: 2 shuffles x 8.
	if m.FilesCreated != 16 || m.FilesDeleted != 16 {
		t.Errorf("metrics %+v", m)
	}
}

func TestRunHintsReachStorage(t *testing.T) {
	p := buildPipeline(t)
	cluster, err := dfs.NewCluster(1e12, dfs.ThresholdDecider(5))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	hinter := HinterFunc(func(j *trace.Job) int {
		calls++
		// Features must be available at hint time; measurements not yet.
		if j.Pipeline == "" || j.Resources.BucketSizingNumWorkers == 0 {
			t.Error("hint called without decision-time features")
		}
		if j.SizeBytes != 0 {
			t.Error("hint saw post-execution measurements")
		}
		if strings.HasSuffix(j.Step, "by-word") {
			return 9 // admitted
		}
		return 2 // rejected by ThresholdDecider(5)
	})
	ex := NewExecutor(dfs.NewClient(cluster), hinter)
	rep, err := runAt(ex, spec(t, p), 0)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("hinter called %d times, want 2", calls)
	}
	if rep.Shuffles[0].FracOnSSD != 1 {
		t.Errorf("admitted shuffle frac = %g, want 1", rep.Shuffles[0].FracOnSSD)
	}
	if rep.Shuffles[1].FracOnSSD != 0 {
		t.Errorf("rejected shuffle frac = %g, want 0", rep.Shuffles[1].FracOnSSD)
	}
}

func TestHistoryAccumulatesAcrossRuns(t *testing.T) {
	p := buildPipeline(t)
	_, ex := newEnv(t, 1e12, dfs.StaticDecider(true))
	s := spec(t, p)
	rep1, err := runAt(ex, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Shuffles[0].Job.History.NumRuns != 0 {
		t.Error("first run should have no history")
	}
	rep2, err := runAt(ex, s, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	h := rep2.Shuffles[0].Job.History
	if h.NumRuns != 1 {
		t.Fatalf("second run NumRuns = %d, want 1", h.NumRuns)
	}
	if h.AvgSizeBytes != rep1.Shuffles[0].Job.SizeBytes {
		t.Errorf("history size = %g, want %g", h.AvgSizeBytes, rep1.Shuffles[0].Job.SizeBytes)
	}
}

func TestRuntimeFasterOnSSDForHotWorkload(t *testing.T) {
	// A read-heavy small-op pipeline should run much faster when its
	// shuffles are placed on SSD (Fig. 14's effect).
	p, err := NewPipeline("hotquery", "bob").
		GroupByKey("join", ShuffleProfile{
			SizeFactor: 1, WriteAmp: 1.2, ReadFactor: 20,
			ReadOpBytes: 32 * 1024, CacheHitFrac: 0.1,
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	s := WorkloadSpec{Pipeline: p, InputBytes: 1 << 28, NumWorkers: 4, WorkerThreads: 4, RecordBytes: 512}

	_, exSSD := newEnv(t, 1e12, dfs.StaticDecider(true))
	repSSD, err := runAt(exSSD, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, exHDD := newEnv(t, 1e12, dfs.StaticDecider(false))
	repHDD, err := runAt(exHDD, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if repSSD.Runtime()*2 > repHDD.Runtime() {
		t.Errorf("SSD runtime %.1fs vs HDD %.1fs: want >= 2x speedup",
			repSSD.Runtime(), repHDD.Runtime())
	}
}

func TestRunRejectsInvalidSpec(t *testing.T) {
	_, ex := newEnv(t, 1e12, dfs.StaticDecider(true))
	if _, err := runAt(ex, WorkloadSpec{}, 0); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestRetentionHoldsSpaceWithoutBlockingPipeline: a retained shuffle
// keeps its SSD allocation past the stage's completion, and the
// pipeline's own runtime is the same as without retention.
func TestRetentionHoldsSpaceWithoutBlockingPipeline(t *testing.T) {
	mk := func(retainSec float64) WorkloadSpec {
		prof := DefaultShuffleProfile()
		prof.RetainSec = retainSec
		p, err := NewPipeline("p", "u").GroupByKey("s", prof).Build()
		if err != nil {
			t.Fatal(err)
		}
		return WorkloadSpec{Pipeline: p, InputBytes: 1 << 28, NumWorkers: 4,
			WorkerThreads: 2, RecordBytes: 512}
	}

	// A probe process samples SSD usage after the retained pipeline's
	// shuffle finished but before retention expires.
	cluster, ex := newEnv(t, 1e12, dfs.StaticDecider(true))
	des := desched.New()
	var repRetained *Report
	des.Spawn(0, func(p *desched.Proc) {
		var err error
		if repRetained, err = ex.Run(mk(10000), p); err != nil {
			t.Error(err)
		}
	})
	var usedMid float64 = -1
	des.Spawn(5000, func(*desched.Proc) { usedMid = cluster.SSDUsed() })
	des.Run()

	if repRetained == nil {
		t.Fatal("no report")
	}
	if repRetained.Runtime() > 4000 {
		t.Errorf("runtime %.0fs includes retention (should not)", repRetained.Runtime())
	}
	if usedMid <= 0 {
		t.Errorf("retained file not holding SSD space at t=5000 (used=%g)", usedMid)
	}
	if used := cluster.SSDUsed(); used != 0 {
		t.Errorf("space not released after retention: %g", used)
	}

	// Runtime parity: retention must not slow the pipeline itself.
	_, ex2 := newEnv(t, 1e12, dfs.StaticDecider(true))
	repPlain, err := runAt(ex2, mk(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if repPlain.Runtime() != repRetained.Runtime() {
		t.Errorf("retention changed pipeline runtime: %.1fs vs %.1fs",
			repRetained.Runtime(), repPlain.Runtime())
	}
}

// TestNegativeRetentionRejected: builder validation.
func TestNegativeRetentionRejected(t *testing.T) {
	prof := DefaultShuffleProfile()
	prof.RetainSec = -5
	if _, err := NewPipeline("p", "u").GroupByKey("s", prof).Build(); err == nil {
		t.Error("negative retention accepted")
	}
}
