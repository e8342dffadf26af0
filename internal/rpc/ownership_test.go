package rpc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/online"
	"repro/internal/rpc/wire"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestOutcomeJobOwnership is the ownership rule of the frame feedback
// path. An outcome frame is decoded in place: its job's numerics land in
// the session's pooled scratch job and its strings stay in the frame
// buffer, both overwritten by the session's next frame. So whoever keeps
// a job must have been handed one of its own, and whoever was handed the
// scratch must not have kept it.
//
// Three daemons get the same traffic: 1,000 distinct jobs posted as
// frames on one session, a publish landing halfway. One has an
// OutcomeObserver that keeps every job pointer, one a Learner (whose
// window keeps them; its Trainer hook is how the test reads the window
// back), one neither. Every kept job must read as sent at the end,
// strings included. The daemon with no keeper decoded every outcome into
// scratch and nothing else; its controllers must have ended up where the
// other two's did — it decides the batch that follows identically, even
// with every pooled scratch scribbled over first — which they would not
// had the serving core read a job after Observe returned.
func TestOutcomeJobOwnership(t *testing.T) {
	fx := testFixture(t)
	const posts = 1000
	jobs := make([]*trace.Job, posts)
	byID := map[string]*trace.Job{}
	for i := range jobs {
		j := *fx.jobs[i%len(fx.jobs)]
		// Distinct strings of distinct lengths in all ten fields, so a
		// string cut from a reused buffer cannot pass for its own.
		tag := fmt.Sprintf("%d-%s", i, strings.Repeat("x", i%17))
		j.ID, j.Cluster, j.User = "job-"+tag, "cluster-"+tag, "user-"+tag
		j.Meta = trace.Metadata{BuildTargetName: "//build:" + tag, ExecutionName: "exec-" + tag,
			PipelineName: j.Pipeline + "-" + tag, StepName: j.Step + "-" + tag, UserName: "meta-user-" + tag}
		j.ArrivalSec = fx.jobs[0].ArrivalSec + float64(i)
		jobs[i] = &j
		byID[j.ID] = &j
	}
	following := fx.jobs[len(fx.jobs)-48:]
	outcomeFor := func(i int) sim.Outcome {
		o := sim.Outcome{WantedSSD: i%4 != 0, SpilledAt: -1, EvictedAt: -1}
		if o.WantedSSD {
			o.FracOnSSD = 1
			if i%3 == 0 {
				o.FracOnSSD, o.SpilledAt = 0.25, jobs[i].ArrivalSec+1
			}
		}
		return o
	}

	// The learner's window is private; its retrain hands the Trainer the
	// window, oldest first, minus the newest quarter of it (the holdout).
	// A third as many closing posts (every daemon gets them), later than
	// every job, fill the window to MinRetrainJobs, fire the cadence
	// trigger on the last one and are themselves the whole holdout.
	var (
		windowMu sync.Mutex
		window   []*trace.Job
	)
	const closers = posts / 3
	closer := *jobs[posts-1]
	closer.ID, closer.ArrivalSec = "closer", jobs[posts-1].ArrivalSec+3600
	lcfg := online.DefaultConfig(testCategories)
	lcfg.Drift.TVThreshold = 0
	lcfg.RetrainEverySec = 1
	lcfg.MinRetrainJobs = posts + closers
	lcfg.Trainer = func(js []*trace.Job, _ *cost.Model) (*core.CategoryModel, error) {
		windowMu.Lock()
		window = append(window, js...)
		windowMu.Unlock()
		return nil, errors.New("the test only reads the window")
	}

	type row struct {
		name     string
		hook     *keepingObserver
		learner  bool
		next     []wire.Decision
		observed int64
	}
	rows := []*row{{name: "observer", hook: &keepingObserver{}}, {name: "learner", learner: true}, {name: "no keeper"}}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			reg := fx.newRegistry(t)
			cfg := testConfig()
			if r.hook != nil {
				cfg.OutcomeObserver = r.hook
			}
			if r.learner {
				l, err := online.New(reg, "w", fx.cm, lcfg)
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				cfg.Learner = l
			}
			d := startDaemon(t, reg, cfg)
			c := newCodecClient(t, d, CodecBinary)
			ctx := context.Background()
			for i, j := range jobs {
				if i == posts/2 {
					if _, err := reg.Publish("w", fx.model, 1); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.Observe(ctx, j, i%testCategories, outcomeFor(i)); err != nil {
					t.Fatalf("observe %d: %v", i, err)
				}
			}
			for range closers {
				if err := c.Observe(ctx, &closer, 0, outcomeFor(posts-1)); err != nil {
					t.Fatal(err)
				}
			}
			r.observed = d.ServeStats().Observations
			if st := d.Stats(); st.StreamSessions != 1 || st.BadRequests != 0 {
				t.Errorf("%d stream sessions, %d bad requests; want every post on one session", st.StreamSessions, st.BadRequests)
			}

			if r.hook == nil && !r.learner {
				// Park the session's scratch back in the pool (the session's
				// last act but one, before it unregisters), then ruin every
				// scratch the pool will hand out: nothing may be reading one.
				c.Close()
				for open := 1; open > 0; time.Sleep(time.Millisecond) {
					d.streamMu.Lock()
					open = len(d.streamConns)
					d.streamMu.Unlock()
				}
				var taken []*placeScratch
				for i := 0; i < 8; i++ {
					sc := d.scratch.Get().(*placeScratch)
					for _, s := range []string{sc.job.ID, sc.job.Pipeline, sc.job.Step, sc.job.Meta.UserName} {
						if s != "" {
							t.Errorf("a scratch job holds the string %q: decode in place leaves strings in the frame", s)
						}
					}
					sc.job = trace.Job{ID: "ruined", ArrivalSec: math.NaN(), LifetimeSec: math.NaN(), SizeBytes: math.NaN()}
					body := sc.body[:cap(sc.body)]
					for k := range body {
						body[k] = 0xAA
					}
					taken = append(taken, sc)
				}
				for _, sc := range taken {
					d.scratch.Put(sc)
				}
				c = newCodecClient(t, d, CodecBinary)
			}
			next, err := c.Place(ctx, following)
			if err != nil {
				t.Fatal(err)
			}
			r.next = next
		})
	}

	check := func(who string, kept []*trace.Job) {
		t.Helper()
		seen := map[*trace.Job]bool{}
		for _, j := range kept {
			if j.ID == closer.ID {
				continue
			}
			if want := byID[j.ID]; want == nil || !reflect.DeepEqual(j, want) {
				t.Errorf("a job kept by %s no longer reads as sent:\n%+v\n%s", who, *j, fmt.Sprint(want))
				return
			}
			if seen[j] {
				t.Errorf("%s was handed one job twice: %s", who, j.ID)
				return
			}
			seen[j] = true
		}
		if len(seen) != posts {
			t.Errorf("%s kept %d of the jobs, want %d", who, len(seen), posts)
		}
	}
	check("the observer", rows[0].hook.kept)
	check("the learner's window", window)
	for _, r := range rows {
		if r.observed != posts+closers {
			t.Errorf("%s: %d observations applied when the last post returned, want %d", r.name, r.observed, posts+closers)
		}
		if !reflect.DeepEqual(r.next, rows[0].next) {
			t.Errorf("%s: the batch after the feedback was decided differently than on the daemon that owned every job", r.name)
		}
	}
}
