// Package trace defines the workload model of the reproduction — shuffle
// jobs with the attributes and application-level features described in
// Sections 3 and 4.1 of the paper — together with a hierarchical synthetic
// workload generator that stands in for Google's production traces and
// JSON-lines (de)serialization.
//
// The basic data placement unit is a shuffle Job with four placement
// attributes (start time, lifetime, size, cost inputs) plus the feature
// groups from Table 2: historical system metrics, allocated resources,
// job timestamps and execution metadata.
package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"
)

// Metadata holds the execution-metadata string features (feature group B
// in the paper, Table 2). Strings detail execution-related names, paths
// and targets; key elements are separated by non-alphanumeric characters.
type Metadata struct {
	BuildTargetName string `json:"build_target_name"`
	ExecutionName   string `json:"execution_name"`
	PipelineName    string `json:"pipeline_name"`
	StepName        string `json:"step_name"`
	UserName        string `json:"user_name"`
}

// Resources holds the allocated-resource features (feature group C),
// assigned by the cluster scheduler before the job starts.
type Resources struct {
	BucketSizingInitialNumStripes int   `json:"bucket_sizing_initial_num_stripes"`
	BucketSizingNumShards         int   `json:"bucket_sizing_num_shards"`
	BucketSizingNumWorkerThreads  int   `json:"bucket_sizing_num_worker_threads"`
	BucketSizingNumWorkers        int   `json:"bucket_sizing_num_workers"`
	InitialNumBuckets             int   `json:"initial_num_buckets"`
	NumBuckets                    int   `json:"num_buckets"`
	RecordsWritten                int64 `json:"records_written"`
	RequestedNumShards            int   `json:"requested_num_shards"`
}

// History holds the historical system metrics (feature group A): averages
// over previously completed jobs from the same user's pipelines.
type History struct {
	AvgTCIO      float64 `json:"avg_tcio"`
	AvgSizeBytes float64 `json:"avg_size_bytes"`
	AvgLifetime  float64 `json:"avg_lifetime_sec"`
	AvgIODensity float64 `json:"avg_io_density"`
	NumRuns      int     `json:"num_runs"`
}

// Job is one shuffle job: the unit of data placement. Times are seconds
// since the start of the trace. I/O quantities are post-execution
// measurements used by the cost model and for labeling; the feature
// groups (Meta, Resources, History and the arrival timestamp) are the
// only inputs available to a model at placement-decision time.
type Job struct {
	ID       string `json:"id"`
	Cluster  string `json:"cluster"`
	User     string `json:"user"`
	Pipeline string `json:"pipeline"`
	Step     string `json:"step"`

	ArrivalSec  float64 `json:"arrival_sec"`
	LifetimeSec float64 `json:"lifetime_sec"`

	// SizeBytes is the peak intermediate-file footprint of the job.
	SizeBytes float64 `json:"size_bytes"`
	// ReadBytes / WriteBytes are total bytes transferred over the
	// job's lifetime.
	ReadBytes  float64 `json:"read_bytes"`
	WriteBytes float64 `json:"write_bytes"`
	// AvgReadSizeBytes is the mean size of a read operation; small
	// random reads make a job HDD-hostile.
	AvgReadSizeBytes float64 `json:"avg_read_size_bytes"`
	// CacheHitFrac is the fraction of read I/O absorbed by the DRAM
	// cache that sits alongside HDDs in each storage server; such
	// reads never reach the disks and do not count toward TCIO.
	CacheHitFrac float64 `json:"cache_hit_frac"`

	Meta      Metadata  `json:"meta"`
	Resources Resources `json:"resources"`
	History   History   `json:"history"`
}

// EndSec returns the job's end time.
func (j *Job) EndSec() float64 { return j.ArrivalSec + j.LifetimeSec }

// TotalBytes returns read plus write bytes.
func (j *Job) TotalBytes() float64 { return j.ReadBytes + j.WriteBytes }

// IODensity is the total I/O across the job lifetime divided by its
// maximum storage footprint (Section 4.2).
func (j *Job) IODensity() float64 {
	if j.SizeBytes <= 0 {
		return 0
	}
	return j.TotalBytes() / j.SizeBytes
}

// TemplateKey identifies the job's recurring identity (pipeline + step).
// The Heuristic baseline uses it as the admission category, mirroring the
// paper's use of the job's ID as the CacheSack category.
func (j *Job) TemplateKey() string { return j.Pipeline + "/" + j.Step }

// TemplateHash is FNV-1a over the TemplateKey bytes (pipeline, "/",
// step) without building the key. It is the routine behind
// serve.TemplateHash, which shards a job's placements and, on a plane,
// routes them and their feedback to the template's node.
func TemplateHash(pipeline, step string) uint32 {
	// Inlined FNV-1a: this runs once per job on the submit path, and
	// hash.Hash32 plus the key concatenation would cost three heap
	// allocations per call.
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(pipeline); i++ {
		h = (h ^ uint32(pipeline[i])) * prime32
	}
	h = (h ^ '/') * prime32
	for i := 0; i < len(step); i++ {
		h = (h ^ uint32(step[i])) * prime32
	}
	return h
}

// Weekday returns the weekday (0 = Sunday) of the job's arrival assuming
// the trace starts at the Epoch below.
func (j *Job) Weekday() int {
	return int(Epoch.Add(time.Duration(j.ArrivalSec * float64(time.Second))).Weekday())
}

// HourOfDay returns the hour-of-day [0, 24) of the job's arrival.
func (j *Job) HourOfDay() int {
	return int(math.Mod(j.ArrivalSec/3600, 24))
}

// SecondOfDay returns the second within the arrival day [0, 86400).
func (j *Job) SecondOfDay() float64 {
	return math.Mod(j.ArrivalSec, 86400)
}

// Epoch anchors trace-relative times to a calendar (a Monday) so weekday
// features are meaningful.
var Epoch = time.Date(2024, time.January, 1, 0, 0, 0, 0, time.UTC)

// Validate performs basic sanity checks on a job.
func (j *Job) Validate() error {
	switch {
	case j.ID == "":
		return fmt.Errorf("trace: job has empty ID")
	case j.LifetimeSec <= 0:
		return fmt.Errorf("trace: job %s has non-positive lifetime %g", j.ID, j.LifetimeSec)
	case j.SizeBytes <= 0:
		return fmt.Errorf("trace: job %s has non-positive size %g", j.ID, j.SizeBytes)
	case j.ReadBytes < 0 || j.WriteBytes < 0:
		return fmt.Errorf("trace: job %s has negative I/O", j.ID)
	case j.CacheHitFrac < 0 || j.CacheHitFrac > 1:
		return fmt.Errorf("trace: job %s has cache hit fraction %g outside [0,1]", j.ID, j.CacheHitFrac)
	case math.IsNaN(j.ArrivalSec) || math.IsInf(j.ArrivalSec, 0):
		return fmt.Errorf("trace: job %s has invalid arrival %g", j.ID, j.ArrivalSec)
	}
	return nil
}

// Trace is a set of jobs sorted by arrival time. A generated trace keeps
// its jobs in arrival-ordered 256-job blocks: a kept job keeps its block.
type Trace struct {
	Cluster string `json:"cluster"`
	Jobs    []*Job `json:"jobs"`
}

// Sort orders jobs by arrival time (stable; ties broken by ID for
// determinism).
func (t *Trace) Sort() { slices.SortStableFunc(t.Jobs, byArrival) }

// byArrival orders jobs by (ArrivalSec, ID).
func byArrival(a, b *Job) int {
	if a.ArrivalSec != b.ArrivalSec {
		return cmp.Compare(a.ArrivalSec, b.ArrivalSec)
	}
	return cmp.Compare(a.ID, b.ID)
}

// Validate checks every job and that the trace is sorted.
func (t *Trace) Validate() error {
	last := math.Inf(-1)
	for _, j := range t.Jobs {
		if err := j.Validate(); err != nil {
			return err
		}
		if j.ArrivalSec < last {
			return fmt.Errorf("trace: jobs not sorted by arrival at %s", j.ID)
		}
		last = j.ArrivalSec
	}
	return nil
}

// Duration returns the time span covered by the trace (end of last job).
func (t *Trace) Duration() float64 {
	var end float64
	for _, j := range t.Jobs {
		if e := j.EndSec(); e > end {
			end = e
		}
	}
	return end
}

// PeakSSDUsage returns the maximum simultaneous footprint of all jobs —
// the SSD space an infinite-quota placement would need. Experiments that
// vary SSD capacity express quotas as a fraction of this value, exactly
// as the paper does ("portion of the peak SSD space usage").
func (t *Trace) PeakSSDUsage() float64 {
	type event struct {
		at    float64
		delta float64
	}
	events := make([]event, 0, 2*len(t.Jobs))
	for _, j := range t.Jobs {
		events = append(events, event{j.ArrivalSec, j.SizeBytes})
		events = append(events, event{j.EndSec(), -j.SizeBytes})
	}
	// Process releases before acquisitions at identical times.
	slices.SortFunc(events, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.delta, b.delta))
	})
	var cur, peak float64
	for _, e := range events {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// Filter returns the jobs for which keep returns true.
func (t *Trace) Filter(keep func(*Job) bool) *Trace {
	out := &Trace{Cluster: t.Cluster}
	for _, j := range t.Jobs {
		if keep(j) {
			out.Jobs = append(out.Jobs, j)
		}
	}
	return out
}

// Shift moves every job's arrival by offset seconds (used to splice
// trace segments into drift scenarios).
func (t *Trace) Shift(offset float64) {
	for _, j := range t.Jobs {
		j.ArrivalSec += offset
	}
}

// SplitAt splits the trace into jobs arriving before the cut and at/after
// the cut — used to build the paper's contiguous train/test week pair.
func (t *Trace) SplitAt(cut float64) (train, test *Trace) {
	k := 0
	for _, j := range t.Jobs {
		if j.ArrivalSec < cut {
			k++
		}
	}
	// Both halves are cut from one array, each with its capacity clipped
	// to its length, so an append to one never writes into the other. An
	// empty half is nil, as it was while the halves grew by append.
	all := make([]*Job, len(t.Jobs))
	train = &Trace{Cluster: t.Cluster, Jobs: all[:0:k]}
	test = &Trace{Cluster: t.Cluster, Jobs: all[k:k]}
	for _, j := range t.Jobs {
		if j.ArrivalSec < cut {
			train.Jobs = append(train.Jobs, j)
		} else {
			test.Jobs = append(test.Jobs, j)
		}
	}
	if k == 0 {
		train.Jobs = nil
	}
	if k == len(t.Jobs) {
		test.Jobs = nil
	}
	return train, test
}
