package perf

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// sliceLen is the length of the slices a measured phase is cut into.
// The box the bounds were derived on slows both cores down by up to
// half for a second or less every minute or so; a whole-run mean or a
// pooled tail takes that in, the median slice does not.
const sliceLen = time.Second

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocated returns the number and the bytes of heap allocations so
// far.
func allocated() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// heapLiveMB forces a collection and returns the live heap in units of
// 10^6 bytes.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// tick is one reading of the sampler that runs beside a measured phase.
type tick struct {
	at  time.Time
	cpu time.Duration
}

// sampler reads the CPU clock every sliceLen until stopped; its ticks,
// with one at the start and one at the end, bound the phase's slices.
type sampler struct {
	ticks []tick
	stop  chan struct{}
	done  chan struct{}
}

func startSampler() *sampler {
	s := &sampler{
		ticks: []tick{{time.Now(), cpuTime()}},
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(sliceLen)
		defer t.Stop()
		for {
			select {
			case at := <-t.C:
				s.ticks = append(s.ticks, tick{at, cpuTime()})
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its ticks. A last stretch shorter
// than half a slice is merged into the slice before it.
func (s *sampler) finish() []tick {
	close(s.stop)
	<-s.done
	end := tick{time.Now(), cpuTime()}
	if n := len(s.ticks); n > 1 && end.at.Sub(s.ticks[n-1].at) < sliceLen/2 {
		s.ticks[n-1] = end
		return s.ticks
	}
	return append(s.ticks, end)
}

// measured is what the untraced phase of any workload yields. The three
// rates are medians over the phase's repeated units — one-second slices
// when serving, trainings and suite passes offline — and the rest are
// totals.
type measured struct {
	jobsPerSec  float64
	p50Ms       float64
	cpuUsPerJob float64
	// unitRates holds each unit's jobs per second, for the log.
	unitRates []float64

	wall time.Duration
	// jobs is the number decided (serving) or replayed (offline).
	jobs int64
	// latMs holds one latency per request (serving) or per scenario run
	// (offline), ascending.
	latMs []float64
	late  int64
	// attempted and failed count operations: jobs submitted plus outcome
	// posts, and those that errored.
	attempted, failed int64

	// mallocs, allocBytes and heapMB are filled by bracket.
	mallocs, allocBytes uint64
	heapMB              float64
}

// endToEnd renders the end-to-end metrics of a measured phase.
func (m *measured) endToEnd(setupSec float64) map[string]float64 {
	return map[string]float64{
		"setup_s":        setupSec,
		"allocs_per_job": float64(m.mallocs) / float64(m.jobs),
		"heap_live_mb":   m.heapMB,
	}
}

// ungated renders what a user sees of the phase that is too unsteady on
// a shared machine to bound, and the harness's own readings.
func (m *measured) ungated() map[string]float64 {
	return map[string]float64{
		"perf.alloc_bytes_per_job": float64(m.allocBytes) / float64(m.jobs),
		"perf.jobs_per_s":          m.jobsPerSec,
		"perf.batch_p50_ms":        m.p50Ms,
		"perf.batch_p99_ms":        m.tailMs(),
		"perf.cpu_us_per_job":      m.cpuUsPerJob,
		"perf.requests":            float64(len(m.latMs)),
		"perf.late_share":          share(m.late, int64(len(m.latMs))),
		"perf.achieved_jobs_per_s": float64(m.jobs) / m.wall.Seconds(),
	}
}

// tailMs is the phase's pooled latency tail: the 99th percentile where
// the sample supports it, the highest supported percentile below that
// otherwise.
func (m *measured) tailMs() float64 {
	tail := HighestPercentile(len(m.latMs))
	if tail > 99 {
		tail = 99
	}
	return Percentile(m.latMs, tail)
}

// bracket runs fn between two readings of the allocation counters, then
// reads the live heap while everything fn used is still up.
func bracket(fn func() (*measured, error)) (*measured, error) {
	count, bytes := allocated()
	m, err := fn()
	if err != nil {
		return nil, err
	}
	m.mallocs, m.allocBytes = allocated()
	m.mallocs, m.allocBytes = m.mallocs-count, m.allocBytes-bytes
	m.heapMB = heapLiveMB()
	return m, nil
}

// summarize folds a serving phase into a measured result.
func (p *phase) summarize() *measured {
	m := &measured{wall: p.wall, jobs: p.jobs() - p.failedJobs()}
	type done struct {
		at    time.Duration
		latMs float64
	}
	var all []done
	for i := range p.conns {
		c := &p.conns[i]
		for r, ns := range c.latNs {
			all = append(all, done{time.Duration(c.endNs[r]), float64(ns) / 1e6})
			m.latMs = append(m.latMs, float64(ns)/1e6)
		}
		m.late += c.late
		m.attempted += int64(len(c.cats)) + c.observes
		m.failed += c.failed + c.failedObserves + c.wrong
	}
	sort.Float64s(m.latMs)
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })

	var rates, p50s, cpus []float64
	next := 0
	for i := 1; i < len(p.ticks); i++ {
		from, to := p.ticks[i-1], p.ticks[i]
		var lat []float64
		for ; next < len(all) && all[next].at <= to.at.Sub(p.ticks[0].at); next++ {
			lat = append(lat, all[next].latMs)
		}
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		jobs := float64(len(lat) * p.batch)
		rates = append(rates, jobs/to.at.Sub(from.at).Seconds())
		p50s = append(p50s, Percentile(lat, 50))
		cpus = append(cpus, float64((to.cpu-from.cpu).Microseconds())/jobs)
	}
	m.jobsPerSec, m.p50Ms, m.cpuUsPerJob = Median(rates), Median(p50s), Median(cpus)
	m.unitRates = rates
	return m
}
