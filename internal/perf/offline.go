package perf

import (
	"fmt"
	"regexp"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// suitePassesPerTraining is the offline cycle's shape: one paper-scale
// training, then this many passes of the scenario suite (the issue's
// three trainings to ten passes).
const suitePassesPerTraining = 3

// offlineRig runs the workload that uses no serving code.
type offlineRig struct {
	f   *Fixture
	dir string
}

// suitePass is one sequential run of every scenario package.
type suitePass struct {
	jobs, failedJobs int64
	// wallMs holds each scenario's wall time, and kindSec their sum by
	// pipeline kind.
	wallMs  []float64
	kindSec map[string]float64
	tcoPct  float64
}

// quickScenarios is the part of the suite a smoke run executes: the
// fastest sim and the fastest serve scenario.
var quickScenarios = regexp.MustCompile(`^(log-ingest|flash-crowd)$`)

// runSuite executes the scenario suite on one worker. A scenario that
// is not PASS (golden diff, threshold or pipeline error) fails all its
// jobs.
func runSuite(dir string, quick bool) (*suitePass, error) {
	cfg := scenario.RunnerConfig{Dir: dir, Workers: 1}
	if quick {
		cfg.Filter = quickScenarios
	}
	outcomes, err := scenario.RunAll(cfg)
	if err != nil {
		return nil, err
	}
	p := &suitePass{kindSec: map[string]float64{}}
	var weighted float64
	for _, o := range outcomes {
		if o.Result == nil {
			p.jobs++
			p.failedJobs++
			continue
		}
		s := o.Result.Stats
		p.jobs += int64(s.Jobs)
		if !o.Passed() {
			p.failedJobs += int64(s.Jobs)
		}
		p.wallMs = append(p.wallMs, s.WallMs)
		p.kindSec[o.Pkg.Spec.Pipeline] += s.WallMs / 1000
		weighted += s.TCOPct * float64(s.Jobs)
	}
	p.tcoPct = weighted / float64(p.jobs)
	return p, nil
}

// offlineResult is what the offline measured phase adds to measured.
type offlineResult struct {
	trainSec []float64
	tcoPct   float64
}

// timed runs fn and returns its wall and CPU time.
func timed(fn func() error) (wall, cpu time.Duration, err error) {
	start, cpu0 := time.Now(), cpuTime()
	err = fn()
	return time.Since(start), cpuTime() - cpu0, err
}

// measure runs whole cycles of one training and suitePassesPerTraining
// suite passes until dur has passed, rounding to the nearest cycle. Its
// rates describe the median cycle: the median training plus
// suitePassesPerTraining times the median suite pass, so one slow
// stretch of the machine moves them little.
func (o *offlineRig) measure(dur time.Duration) (*measured, *offlineResult, error) {
	m, res := &measured{}, &offlineResult{}
	passes := suitePassesPerTraining
	if o.f.Quick {
		passes = 1
	}
	var trainWall, trainCPU, passWall, passCPU []float64
	var passJobs int64
	start := time.Now()
	for {
		cycleStart := time.Now()
		wall, cpu, err := timed(func() error {
			_, err := core.TrainCategoryModel(o.f.Train, o.f.Cost, o.f.TrainOptions(ScalePaper))
			return err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("perf: offline training: %w", err)
		}
		trainWall, trainCPU = append(trainWall, wall.Seconds()), append(trainCPU, cpu.Seconds())
		for p := 0; p < passes; p++ {
			var pass *suitePass
			wall, cpu, err := timed(func() (err error) {
				pass, err = runSuite(o.dir, o.f.Quick)
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			passWall, passCPU = append(passWall, wall.Seconds()), append(passCPU, cpu.Seconds())
			passJobs = pass.jobs
			m.jobs += pass.jobs - pass.failedJobs
			m.attempted += pass.jobs
			m.failed += pass.failedJobs
			m.latMs = append(m.latMs, pass.wallMs...)
			res.tcoPct = pass.tcoPct
		}
		if time.Since(start)+time.Since(cycleStart)/2 >= dur {
			break
		}
	}
	m.wall = time.Since(start)
	sort.Float64s(m.latMs)
	res.trainSec = trainWall
	cycleJobs := float64(passes) * float64(passJobs)
	m.jobsPerSec = cycleJobs / (Median(trainWall) + float64(passes)*Median(passWall))
	m.cpuUsPerJob = 1e6 * (Median(trainCPU) + float64(passes)*Median(passCPU)) / cycleJobs
	m.p50Ms = Percentile(m.latMs, 50)
	for _, sec := range passWall {
		m.unitRates = append(m.unitRates, float64(passJobs)/sec)
	}
	return m, res, nil
}
