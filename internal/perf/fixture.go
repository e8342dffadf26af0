package perf

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/trace"
)

// TrainJobs and PoolJobs fix the fixture's two halves at the same size
// for every seed: the last TrainJobs jobs before the trace's midpoint
// train the models and the first PoolJobs jobs after it, in arrival
// order, are replayed. A generated trace holds 42k to 83k jobs depending
// on the seed; left whole, training time and heap would follow the seed
// and drown every other difference between runs. PoolJobs is a multiple
// of both request sizes in use, 64 and 8.
const (
	TrainJobs = 20480
	PoolJobs  = 16384
)

// passShiftSec moves one replay pass of the pool past the previous one
// on the trace's virtual clock, so controller time stays monotone and a
// pass does not hand the model the rows of an earlier one. A lite
// workload replays the pool some eighty times in a run, and a small
// forest tells two passes apart by time of day alone, so the step past
// the whole week is chosen to keep any two of 120 passes at least 700 s
// apart in the day and any two of 250 at least 2000 s apart in the
// week. Measured on seeds 1 to 4 with the lite model, rows that repeat
// an earlier one are under 0.1 % of 75 passes (none at paper scale);
// features.row_repeat_share reports the share of every traced run.
const passShiftSec = 7*24*3600 + 7141

// Scale names the two model sizes the workloads run at.
type Scale int

const (
	// ScalePaper is core.DefaultTrainOptions: 15 categories, 60 rounds,
	// depth 6. Every transport is forest-bound at this size.
	ScalePaper Scale = iota
	// ScaleLite keeps 15 categories but trains 6 rounds of depth 4, so
	// transport, codec and feature work dominate instead.
	ScaleLite
)

// Fixture is the one seeded input every workload runs on: a generated
// C0 trace split in half, the first half for training and the second,
// in arrival order, as the replay pool.
type Fixture struct {
	Seed  int64
	Quick bool
	Cost  *cost.Model
	Train []*trace.Job
	Pool  []*trace.Job
	// GenerateSec is the wall time trace.Generator.Generate took and
	// Generated the number of jobs it produced.
	GenerateSec float64
	Generated   int
}

// NewFixture generates the trace for seed: two weeks of a 28-user C0
// cluster, lengthened a week at a time for the rare seed that yields too
// few jobs. The quick fixture is a few days of a small cluster, for
// smoke tests.
func NewFixture(seed int64, quick bool) (*Fixture, error) {
	cfg := trace.DefaultGeneratorConfig("C0", seed)
	cfg.DurationSec, cfg.NumUsers = 14*24*3600, 28
	nTrain, nPool := TrainJobs, PoolJobs
	if quick {
		cfg.DurationSec, cfg.NumUsers = 4*24*3600, 8
		nTrain, nPool = 1536, 1536
	}
	for weeks := 0; weeks < 4; weeks++ {
		start := time.Now()
		full := trace.NewGenerator(cfg).Generate()
		genSec := time.Since(start).Seconds()
		train, test := full.SplitAt(full.Duration() / 2)
		if len(train.Jobs) >= nTrain && len(test.Jobs) >= nPool {
			return &Fixture{
				Seed:  seed,
				Quick: quick,
				Cost:  cost.Default(),
				// Copies, so the jobs outside the two halves can be collected.
				Train:       append([]*trace.Job(nil), train.Jobs[len(train.Jobs)-nTrain:]...),
				Pool:        append([]*trace.Job(nil), test.Jobs[:nPool]...),
				GenerateSec: genSec,
				Generated:   len(full.Jobs),
			}, nil
		}
		cfg.DurationSec += 7 * 24 * 3600
	}
	return nil, fmt.Errorf("perf: seed %d: six weeks of trace still hold under %d training and %d pool jobs", seed, nTrain, nPool)
}

// TrainOptions returns the training options of a model scale.
func (f *Fixture) TrainOptions(s Scale) core.TrainOptions {
	opts := core.DefaultTrainOptions()
	if s == ScaleLite {
		opts.GBDT.NumRounds, opts.GBDT.MaxDepth = 6, 4
	}
	if f.Quick {
		opts.GBDT.NumRounds, opts.GBDT.MaxDepth = opts.GBDT.NumRounds/10+1, 4
	}
	return opts
}

// Batches returns how many requests of size jobs one pass of the pool
// holds.
func (f *Fixture) Batches(size int) int { return len(f.Pool) / size }

// Batch writes request g of the endless replay into store and returns
// pointers to it: request g covers pool jobs (g mod Batches)·size
// onward, with every arrival moved by the pass number times
// passShiftSec. The copy is the client's own, so the pool itself is
// never modified.
func (f *Fixture) Batch(g, size int, store []trace.Job, ptrs []*trace.Job) []*trace.Job {
	per := f.Batches(size)
	pass, at := g/per, g%per*size
	shift := float64(pass) * passShiftSec
	ptrs = ptrs[:0]
	for k := 0; k < size; k++ {
		store[k] = *f.Pool[at+k]
		store[k].ArrivalSec += shift
		ptrs = append(ptrs, &store[k])
	}
	return ptrs
}
