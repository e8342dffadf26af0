// Package dataflow is a miniature distributed data processing framework
// in the mold of Apache Beam (Section 2.1): pipelines are chains of
// stages, GroupByKey-style stages trigger shuffle jobs, and shuffle
// jobs move data through intermediate files in three steps — workers
// write raw intermediate files, sorters organize them into sorted
// files, and workers read the required data back (Appendix B). Work is
// divided into buckets assigned to workers; shards are written as
// stripes for parallelism.
//
// The executor runs each pipeline execution as a desched process
// against a dfs cluster, so concurrent executions interleave in virtual
// time and a shuffle's retained intermediate files hold SSD space until
// they expire. It implements the paper's BYOM integration point: before
// opening files for writing, the framework computes the job's features,
// asks the workload's category model for an importance hint, and passes
// the hint to the storage layer with the file create.
package dataflow

import (
	"fmt"
	"math"

	"repro/internal/desched"
	"repro/internal/dfs"
	"repro/internal/trace"
)

// StageKind distinguishes computation-only stages from shuffles.
type StageKind int

const (
	// ParDo is an element-wise computation stage (no shuffle).
	ParDo StageKind = iota
	// GroupByKey exchanges data between workers via a shuffle job.
	GroupByKey
)

// ShuffleProfile describes the I/O behaviour of one shuffle stage
// relative to its input bytes.
type ShuffleProfile struct {
	// SizeFactor scales stage input bytes to the intermediate-file
	// footprint (1 = same size).
	SizeFactor float64
	// WriteAmp is total bytes written per footprint byte (>= 1: raw
	// files once, plus sorter output).
	WriteAmp float64
	// ReadFactor is bytes read back per footprint byte in the retrieval
	// step (hot shuffles re-read many times).
	ReadFactor float64
	// ReadOpBytes is the mean retrieval read size.
	ReadOpBytes float64
	// CacheHitFrac is the DRAM hit fraction for HDD reads.
	CacheHitFrac float64
	// RetainSec keeps the intermediate files alive after the retrieval
	// step completes (downstream stages may re-read them; batch
	// pipelines retain outputs far longer than interactive ones —
	// the lifetime diversity of the paper's Fig. 1).
	RetainSec float64
}

// Stage is one node of the pipeline graph.
type Stage struct {
	Name    string
	Kind    StageKind
	Shuffle ShuffleProfile // meaningful for GroupByKey stages
	// OutputFactor scales bytes flowing to the next stage.
	OutputFactor float64
}

// Pipeline is a chain of stages (the data flow graph of Fig. 3).
type Pipeline struct {
	Name   string
	User   string
	Stages []Stage
}

// Builder assembles pipelines fluently.
type Builder struct {
	p Pipeline
}

// NewPipeline starts a builder.
func NewPipeline(name, user string) *Builder {
	return &Builder{p: Pipeline{Name: name, User: user}}
}

// ParDo appends a computation stage.
func (b *Builder) ParDo(name string) *Builder {
	b.p.Stages = append(b.p.Stages, Stage{Name: name, Kind: ParDo, OutputFactor: 1})
	return b
}

// ParDoScale appends a computation stage that scales its output bytes.
func (b *Builder) ParDoScale(name string, outputFactor float64) *Builder {
	b.p.Stages = append(b.p.Stages, Stage{Name: name, Kind: ParDo, OutputFactor: outputFactor})
	return b
}

// GroupByKey appends a shuffle stage.
func (b *Builder) GroupByKey(name string, prof ShuffleProfile) *Builder {
	b.p.Stages = append(b.p.Stages, Stage{Name: name, Kind: GroupByKey, Shuffle: prof, OutputFactor: 1})
	return b
}

// Build finalizes the pipeline.
func (b *Builder) Build() (*Pipeline, error) {
	if b.p.Name == "" || b.p.User == "" {
		return nil, fmt.Errorf("dataflow: pipeline needs a name and user")
	}
	if len(b.p.Stages) == 0 {
		return nil, fmt.Errorf("dataflow: pipeline %q has no stages", b.p.Name)
	}
	for _, s := range b.p.Stages {
		if s.Kind == GroupByKey {
			if s.Shuffle.SizeFactor <= 0 || s.Shuffle.WriteAmp < 1 ||
				s.Shuffle.ReadFactor < 0 || s.Shuffle.ReadOpBytes <= 0 ||
				s.Shuffle.CacheHitFrac < 0 || s.Shuffle.CacheHitFrac > 1 ||
				s.Shuffle.RetainSec < 0 {
				return nil, fmt.Errorf("dataflow: stage %q has invalid shuffle profile", s.Name)
			}
		}
	}
	p := b.p
	return &p, nil
}

// WorkloadSpec is one execution of a pipeline.
type WorkloadSpec struct {
	Pipeline   *Pipeline
	InputBytes float64
	NumWorkers int
	// WorkerThreads is the per-worker parallelism (bucket sizing).
	WorkerThreads int
	// RecordBytes is the mean record size (for records_written).
	RecordBytes float64
	// ComputeSecPerGiB models per-stage CPU work alongside I/O.
	ComputeSecPerGiB float64
}

// Validate checks the spec.
func (s *WorkloadSpec) Validate() error {
	switch {
	case s.Pipeline == nil:
		return fmt.Errorf("dataflow: spec has no pipeline")
	case s.InputBytes <= 0:
		return fmt.Errorf("dataflow: input bytes %g", s.InputBytes)
	case s.NumWorkers < 1:
		return fmt.Errorf("dataflow: %d workers", s.NumWorkers)
	case s.WorkerThreads < 1:
		return fmt.Errorf("dataflow: %d worker threads", s.WorkerThreads)
	case s.RecordBytes <= 0:
		return fmt.Errorf("dataflow: record bytes %g", s.RecordBytes)
	}
	return nil
}

// Hinter is the application-layer model interface: given the job's
// decision-time features it returns the importance category passed to
// the storage layer. A nil Hinter sends category hints of 0.
type Hinter interface {
	Hint(j *trace.Job) int
}

// HinterFunc adapts a function to the Hinter interface.
type HinterFunc func(j *trace.Job) int

// Hint implements Hinter.
func (f HinterFunc) Hint(j *trace.Job) int { return f(j) }

// ShuffleRecord reports one executed shuffle job.
type ShuffleRecord struct {
	// Job is the realized shuffle-job record (sizes and I/O measured
	// during execution; features as seen at decision time).
	Job *trace.Job
	// Category is the hint the application layer attached.
	Category int
	// FracOnSSD is the byte fraction the caching server placed on SSD.
	FracOnSSD  float64
	StartedAt  float64
	FinishedAt float64
}

// Report summarizes one workload execution.
type Report struct {
	Pipeline   string
	Shuffles   []ShuffleRecord
	StartedAt  float64
	FinishedAt float64
}

// Runtime returns the end-to-end execution time.
func (r *Report) Runtime() float64 { return r.FinishedAt - r.StartedAt }

// history accumulates per-template execution history, mirroring the
// feature group A the production framework exposes.
type history struct {
	tcio, size, lifetime, density float64
	runs                          int
}

// Executor runs workloads against a dfs cluster in virtual time.
type Executor struct {
	client *dfs.Client
	hinter Hinter
	hist   map[string]*history
	seq    int
}

// NewExecutor builds an executor. hinter may be nil (no model: all
// hints are category 0).
func NewExecutor(client *dfs.Client, hinter Hinter) *Executor {
	return &Executor{client: client, hinter: hinter, hist: map[string]*history{}}
}

// Run executes the workload as the scheduled process p, starting at
// p.Now(). It waits at every phase boundary, so concurrent executions
// interleave in global virtual-time order and their files contend for
// SSD space at the right instants. Run returns once the last retained
// file is deleted; the report's FinishedAt is when the last stage ended.
func (e *Executor) Run(spec WorkloadSpec, p *desched.Proc) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	now := p.Now()
	rep := &Report{Pipeline: spec.Pipeline.Name, StartedAt: now}
	bytes := spec.InputBytes
	computePerByte := spec.ComputeSecPerGiB / (1 << 30)

	// Retained files are released by this process at their own due
	// times without blocking the pipeline's stages.
	var pending deleteQueue
	for si, stage := range spec.Pipeline.Stages {
		switch stage.Kind {
		case ParDo:
			// Pure computation: advance time by the parallel work.
			now += bytes * computePerByte / float64(spec.NumWorkers*spec.WorkerThreads)
			p.WaitUntil(now)
			if err := pending.apply(now); err != nil {
				return nil, err
			}
			bytes *= stage.OutputFactor
		case GroupByKey:
			rec, err := e.runShuffle(spec, si, stage, bytes, now, p, &pending)
			if err != nil {
				return nil, err
			}
			rep.Shuffles = append(rep.Shuffles, *rec)
			now = rec.FinishedAt
			bytes *= stage.OutputFactor
		default:
			return nil, fmt.Errorf("dataflow: unknown stage kind %d", stage.Kind)
		}
	}
	rep.FinishedAt = now
	// Linger until the retained files expire (the execution itself is
	// finished; only the cleanup outlives it).
	for len(pending) > 0 {
		due := pending[0].at
		p.WaitUntil(due)
		if err := pending.apply(due); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// runShuffle executes the three-step shuffle: write raw intermediate
// files, sort, read back.
func (e *Executor) runShuffle(spec WorkloadSpec, stageIdx int, stage Stage, inputBytes, now float64, p *desched.Proc, pending *deleteQueue) (*ShuffleRecord, error) {
	prof := stage.Shuffle
	footprint := inputBytes * prof.SizeFactor
	if footprint <= 0 {
		return nil, fmt.Errorf("dataflow: shuffle %q with zero footprint", stage.Name)
	}
	e.seq++
	jobID := fmt.Sprintf("%s-%s-%d", spec.Pipeline.Name, stage.Name, e.seq)
	key := spec.Pipeline.Name + "/" + stage.Name

	// Decision-time job record: features only (Table 2). Measurements
	// are filled in as execution proceeds.
	j := &trace.Job{
		ID:         jobID,
		User:       spec.Pipeline.User,
		Pipeline:   spec.Pipeline.Name,
		Step:       stage.Name,
		ArrivalSec: now,
		Meta: trace.Metadata{
			BuildTargetName: fmt.Sprintf("//pipelines/%s:%s_main", spec.Pipeline.Name, stage.Name),
			ExecutionName:   fmt.Sprintf("com.dataflow.%s.launcher.Main", spec.Pipeline.Name),
			PipelineName:    fmt.Sprintf("org_%s.%s.prod", spec.Pipeline.User, spec.Pipeline.Name),
			StepName:        fmt.Sprintf("%s-open-shuffle%d", stage.Name, stageIdx),
			UserName:        fmt.Sprintf("GroupByKey-%d", stageIdx),
		},
		Resources: e.resources(spec, footprint),
	}
	if h := e.hist[key]; h != nil && h.runs > 0 {
		n := float64(h.runs)
		j.History = trace.History{
			AvgTCIO:      h.tcio / n,
			AvgSizeBytes: h.size / n,
			AvgLifetime:  h.lifetime / n,
			AvgIODensity: h.density / n,
			NumRuns:      h.runs,
		}
	}

	// BYOM integration point: model inference happens inside the job
	// process before opening files for writing; the prediction is
	// passed to the storage layer with the create calls. One shuffle
	// job comprises one intermediate file per worker (the unit the
	// caching servers place), all carrying the job's hint.
	category := 0
	if e.hinter != nil {
		category = e.hinter.Hint(j)
	}
	perWorker := footprint / float64(spec.NumWorkers)
	handles := make([]*dfs.FileHandle, spec.NumWorkers)
	var fracSum float64
	for wk := range handles {
		h, err := e.client.Create(fmt.Sprintf("%s.shard%03d", jobID, wk), perWorker,
			dfs.Hint{JobID: jobID, Category: category, SizeBytes: perWorker}, now)
		if err != nil {
			return nil, err
		}
		handles[wk] = h
		frac, err := h.FracOnSSD()
		if err != nil {
			return nil, err
		}
		fracSum += frac
	}
	fracSSD := fracSum / float64(spec.NumWorkers)

	stripeBytes := 1 << 20 // writers pack data into 1 MiB stripes
	computePerByte := spec.ComputeSecPerGiB / (1 << 30)

	// Step 1: workers write raw intermediate files in parallel.
	phase1 := now
	for _, h := range handles {
		done, err := h.Write(now, perWorker, float64(stripeBytes))
		if err != nil {
			return nil, err
		}
		compute := now + perWorker*computePerByte/float64(spec.WorkerThreads)
		phase1 = math.Max(phase1, math.Max(done, compute))
	}
	p.WaitUntil(phase1)

	// Step 2: sorters read the raw files and write sorted files.
	sortWrite := footprint * (prof.WriteAmp - 1)
	phase2 := phase1
	if sortWrite > 0 {
		perSortWrite := sortWrite / float64(spec.NumWorkers)
		for _, h := range handles {
			rdone, err := h.Read(phase1, perWorker, 4<<20, prof.CacheHitFrac)
			if err != nil {
				return nil, err
			}
			wdone, err := h.Write(rdone, perSortWrite, float64(stripeBytes))
			if err != nil {
				return nil, err
			}
			phase2 = math.Max(phase2, wdone)
		}
	}
	p.WaitUntil(phase2)

	// Step 3: workers retrieve the required data back into memory.
	readBack := footprint * prof.ReadFactor
	phase3 := phase2
	if readBack > 0 {
		perReader := readBack / float64(spec.NumWorkers)
		for _, h := range handles {
			done, err := h.Read(phase2, perReader, prof.ReadOpBytes, prof.CacheHitFrac)
			if err != nil {
				return nil, err
			}
			compute := phase2 + perReader*computePerByte/float64(spec.WorkerThreads)
			phase3 = math.Max(phase3, math.Max(done, compute))
		}
	}

	// The shuffle completes at phase3; its retained files are released
	// at deleteAt without blocking downstream stages.
	deleteAt := phase3 + prof.RetainSec
	p.WaitUntil(phase3)
	for _, h := range handles {
		pending.schedule(deleteAt, h)
	}
	if err := pending.apply(phase3); err != nil {
		return nil, err
	}

	// Fill the realized measurements.
	sortRead := 0.0
	if sortWrite > 0 {
		sortRead = footprint
	}
	j.LifetimeSec = math.Max(deleteAt-now, 1)
	j.SizeBytes = footprint
	j.WriteBytes = footprint * prof.WriteAmp
	j.ReadBytes = readBack + sortRead
	j.AvgReadSizeBytes = prof.ReadOpBytes
	j.CacheHitFrac = prof.CacheHitFrac

	// Update the framework's history for this template.
	h := e.hist[key]
	if h == nil {
		h = &history{}
		e.hist[key] = h
	}
	effReadOps := j.ReadBytes / j.AvgReadSizeBytes * (1 - j.CacheHitFrac)
	effWriteOps := j.WriteBytes / (1 << 20)
	h.tcio += (effReadOps + effWriteOps) / j.LifetimeSec / 150
	h.size += j.SizeBytes
	h.lifetime += j.LifetimeSec
	h.density += j.IODensity()
	h.runs++

	return &ShuffleRecord{
		Job:        j,
		Category:   category,
		FracOnSSD:  fracSSD,
		StartedAt:  now,
		FinishedAt: phase3,
	}, nil
}

// resources derives the scheduler-assigned resources (feature group C).
func (e *Executor) resources(spec WorkloadSpec, footprint float64) trace.Resources {
	buckets := spec.NumWorkers * spec.WorkerThreads
	shards := buckets * 2
	return trace.Resources{
		BucketSizingInitialNumStripes: 4,
		BucketSizingNumShards:         shards,
		BucketSizingNumWorkerThreads:  spec.WorkerThreads,
		BucketSizingNumWorkers:        spec.NumWorkers,
		InitialNumBuckets:             buckets,
		NumBuckets:                    buckets,
		RecordsWritten:                int64(footprint / spec.RecordBytes),
		RequestedNumShards:            shards,
	}
}
