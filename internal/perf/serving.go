package perf

import (
	"context"
	"fmt"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/router"
	"repro/internal/rpc"
	"repro/internal/rpc/wire"
	"repro/internal/sim"
	"repro/internal/trace"
)

const (
	// workloadKey is the registry namespace every rig publishes under.
	workloadKey = "bench"
	// numCategories is N of both model scales.
	numCategories = 15
	// warmupRequests is the untimed lead-in of every serving set-up.
	warmupRequests = 64
	// lateAfter is how far past its due time a paced request may be sent
	// before it counts as late.
	lateAfter = time.Millisecond
	// failedCategory marks the decisions of a failed request in a
	// connection's log, so positions stay aligned with the replay.
	failedCategory = 255
)

// placeFunc is the signature the three rpc transports and the router
// share.
type placeFunc func(ctx context.Context, jobs []*trace.Job) ([]wire.Decision, error)

// servingRig is one workload's system under test, in-process on
// loopback with unmodified default configs: a daemon (or a 2-node plane
// behind a router) and one submitter per connection.
type servingRig struct {
	w       Workload
	f       *Fixture
	model   *core.CategoryModel
	version int

	daemon  *rpc.Daemon
	plane   *router.Plane
	rtr     *router.Router
	clients []*rpc.Client
	streams []*rpc.StreamSession
	place   []placeFunc

	// next is the first request index of the endless replay not yet
	// handed to a connection; phases advance it past everything they
	// sent, so controller time never runs backwards.
	next   int
	closed bool
}

// newServingRig publishes model, starts the workload's daemon or plane,
// connects its submitters and replays the warm-up.
func newServingRig(w Workload, f *Fixture, model *core.CategoryModel) (*servingRig, error) {
	r := &servingRig{w: w, f: f, model: model}
	reg := registry.New()
	v, err := reg.Publish(workloadKey, model, 0)
	if err != nil {
		return nil, fmt.Errorf("perf: publishing model: %w", err)
	}
	r.version = v.Number
	ctx := context.Background()
	if w.via == viaPlane {
		if r.plane, err = router.NewPlane(reg, workloadKey, f.Cost, rpc.DefaultConfig(numCategories), 2); err != nil {
			return nil, err
		}
		if r.rtr, err = router.New(router.DefaultConfig(r.plane.URLs())); err != nil {
			r.Close()
			return nil, err
		}
		for c := 0; c < Connections; c++ {
			r.place = append(r.place, r.rtr.Place)
		}
	} else {
		if r.daemon, err = startDaemon(reg, f); err != nil {
			return nil, err
		}
		for c := 0; c < Connections; c++ {
			client, err := newClient(r.daemon, w.via)
			if err != nil {
				r.Close()
				return nil, err
			}
			r.clients = append(r.clients, client)
			if w.via != viaStream {
				r.place = append(r.place, client.Place)
				continue
			}
			s, err := client.OpenStream(ctx)
			if err != nil {
				r.Close()
				return nil, fmt.Errorf("perf: opening stream: %w", err)
			}
			r.streams = append(r.streams, s)
			r.place = append(r.place, s.Place)
		}
	}
	warm := warmupRequests
	if f.Quick {
		warm = 8
	}
	if ph := r.drive(0, warm); ph.failedJobs() > 0 {
		r.Close()
		return nil, fmt.Errorf("perf: %s: %d jobs failed during warm-up", w.Name, ph.failedJobs())
	}
	return r, nil
}

// startDaemon starts one default-config daemon on a loopback port.
func startDaemon(reg *registry.Registry, f *Fixture) (*rpc.Daemon, error) {
	d, err := rpc.NewDaemon(reg, workloadKey, f.Cost, rpc.DefaultConfig(numCategories))
	if err != nil {
		return nil, err
	}
	if err := d.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return d, nil
}

// newClient builds a default-config client for d; every transport but
// JSON speaks the binary codec.
func newClient(d *rpc.Daemon, via transport) (*rpc.Client, error) {
	cfg := rpc.DefaultClientConfig(d.BaseURL())
	if via != viaJSON {
		cfg.Codec = rpc.CodecBinary
	}
	return rpc.NewClient(cfg)
}

// stopDaemon drains d.
func stopDaemon(d *rpc.Daemon) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.Shutdown(ctx) // a drain error leaves nothing to recover at teardown
}

// Close stops every submitter and the system under test, and returns
// once they have ended. A second call does nothing.
func (r *servingRig) Close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, s := range r.streams {
		_ = s.Close()
	}
	for _, c := range r.clients {
		c.Close()
	}
	if r.rtr != nil {
		r.rtr.Close()
	}
	if r.plane != nil {
		r.plane.Close()
	}
	if r.daemon != nil {
		stopDaemon(r.daemon)
	}
}

// connLog is what one connection saw during a phase. Request i of the
// connection is replay request first+i·step.
type connLog struct {
	first, step int
	// latNs holds one client-observed latency per request, from the due
	// time on a paced workload, and endNs when the reply arrived, counted
	// from the phase's start.
	latNs, endNs []int64
	// cats holds one predicted category per job, in replay order.
	cats     []uint8
	late     int64
	failed   int64 // jobs of requests that returned an error
	wrong    int64 // decisions out of order or from another model version
	observes int64
	// failedObserves counts outcome posts that returned an error.
	failedObserves int64
}

// phase is one driven stretch of the replay.
type phase struct {
	batch int
	conns []connLog
	wall  time.Duration
	// ticks bound the phase's slices; the first is the phase's start.
	ticks []tick
}

func (p *phase) requests() int64 {
	var n int64
	for i := range p.conns {
		n += int64(len(p.conns[i].latNs))
	}
	return n
}

func (p *phase) jobs() int64 { return p.requests() * int64(p.batch) }

func (p *phase) failedJobs() int64 {
	var n int64
	for i := range p.conns {
		n += p.conns[i].failed
	}
	return n
}

// drive replays the pool through every connection at once, connection c
// taking requests next+c, next+c+Connections, … It stops each
// connection after dur, or after limit requests in total when limit is
// positive (the warm-up).
func (r *servingRig) drive(dur time.Duration, limit int) *phase {
	ph := &phase{batch: r.w.batch, conns: make([]connLog, len(r.place))}
	perConn := limit / len(r.place)
	expect := perConn
	if limit == 0 {
		// Room for a rate no transport reaches, so appends in the timed
		// loop never grow the logs.
		expect = int(dur.Seconds()*200_000)/r.w.batch/len(r.place) + 1
	}
	for c := range ph.conns {
		ph.conns[c] = connLog{
			first: r.next + c,
			step:  len(r.place),
			latNs: make([]int64, 0, expect),
			endNs: make([]int64, 0, expect),
			cats:  make([]uint8, 0, expect*r.w.batch),
		}
	}
	var wg sync.WaitGroup
	clock := startSampler()
	start := clock.ticks[0].at
	for c := range ph.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r.runConn(&ph.conns[c], r.place[c], start, dur, perConn)
		}(c)
	}
	wg.Wait()
	ph.ticks = clock.finish()
	ph.wall = ph.ticks[len(ph.ticks)-1].at.Sub(start)
	most := 0
	for c := range ph.conns {
		if n := len(ph.conns[c].latNs); n > most {
			most = n
		}
	}
	r.next += most * len(r.place)
	return ph
}

// runConn is one connection's loop.
func (r *servingRig) runConn(log *connLog, place placeFunc, start time.Time, dur time.Duration, limit int) {
	ctx := context.Background()
	store := make([]trace.Job, r.w.batch)
	ptrs := make([]*trace.Job, 0, r.w.batch)
	for i := 0; ; i++ {
		if limit > 0 && i >= limit {
			break
		}
		due := time.Now()
		if r.w.period > 0 {
			due = start.Add(time.Duration(i) * r.w.period)
		}
		if limit == 0 && due.Sub(start) >= dur {
			break
		}
		g := log.first + i*log.step
		jobs := r.f.Batch(g, r.w.batch, store, ptrs)
		sleepUntil(due)
		if r.w.period > 0 && time.Since(due) > lateAfter {
			log.late++
		}
		ds, err := place(ctx, jobs)
		end := time.Now()
		log.latNs = append(log.latNs, end.Sub(due).Nanoseconds())
		log.endNs = append(log.endNs, end.Sub(start).Nanoseconds())
		if err != nil || len(ds) != len(jobs) {
			log.failed += int64(len(jobs))
			for range jobs {
				log.cats = append(log.cats, failedCategory)
			}
			continue
		}
		for k := range ds {
			if ds[k].JobID != jobs[k].ID || ds[k].ModelVersion != r.version {
				log.wrong++
			}
			log.cats = append(log.cats, uint8(ds[k].Category))
		}
		if r.w.via == viaPlane {
			for k, j := range jobs {
				log.observes++
				o := seededOutcome(r.f.Seed, g*r.w.batch+k, j, ds[k].Admit)
				if err := r.rtr.Observe(ctx, j, ds[k].Category, o); err != nil {
					log.failedObserves++
				}
			}
		}
	}
}

// sleepUntil blocks the calling thread until t. The pacer cannot use
// time.Sleep: once a process polls the network, an idle Go runtime
// waits in epoll with a timeout in whole milliseconds, and a paced
// request would leave up to a millisecond late, which is the size of
// the latency being measured. nanosleep wakes within about 0.2 ms.
func sleepUntil(t time.Time) {
	for wait := time.Until(t); wait > 0; wait = time.Until(t) {
		ts := syscall.NsecToTimespec(wait.Nanoseconds())
		// A signal (the runtime preempts with them) ends the sleep
		// early with EINTR; the loop sleeps the rest.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// seededOutcome is the outcome a client reports for replay job n: every
// fifth admitted job, chosen by seed, spills half its bytes at half its
// lifetime; the rest play out as decided.
func seededOutcome(seed int64, n int, j *trace.Job, admit bool) sim.Outcome {
	o := sim.Outcome{WantedSSD: admit, SpilledAt: -1, EvictedAt: -1}
	if !admit {
		return o
	}
	o.FracOnSSD = 1
	if mix(uint64(seed), uint64(n))%5 == 0 {
		o.FracOnSSD = 0.5
		o.SpilledAt = j.ArrivalSec + j.LifetimeSec/2
	}
	return o
}

// mix hashes a seed and an index into 64 well-spread bits (splitmix64),
// for choices that must repeat exactly from the seed.
func mix(seed, n uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + n + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
