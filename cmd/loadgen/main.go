// Command loadgen drives a live placementd with synthetic placement
// traffic: it generates a trace, replays it as batched /v1/place
// requests at a target QPS over N concurrent connections (closed-loop:
// each connection waits for its response before its next scheduled
// send), and reports achieved throughput, shed/retry counts and
// latency quantiles.
//
// Usage:
//
//	loadgen -addr 127.0.0.1:7070 -qps 20000 -conns 8 -duration 10s
//	loadgen -addr 127.0.0.1:7070 -qps 0           # unpaced, max rate
//	loadgen -addr 127.0.0.1:7070 -outcomes        # also post feedback
//	loadgen -addr 127.0.0.1:7070 -codec binary    # pre-binned frames on pooled stream sessions
//	loadgen -nodes 127.0.0.1:7070,127.0.0.1:7071  # route across a plane
//	loadgen -nodes 127.0.0.1:7070,127.0.0.1:7071 -outcomes  # routed feedback
//	loadgen -nodes n0=127.0.0.1:7070,n1=127.0.0.1:7071    # named nodes
//
// With -nodes, loadgen embeds the internal/router consistent-hash
// routing layer instead of talking to one daemon: batches spread over
// the plane by workload template, node failures reroute, and the
// summary gains per-node health and routing counters. Outcomes route
// the same way — each lands on the node owning its job's template. A
// node named with a "name=" prefix owns templates by that name, so
// routers that name a plane alike agree on ownership whatever its
// addresses.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/router"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "", "placementd address (host:port); required unless -nodes is set")
		nodes    = fs.String("nodes", "", "comma-separated placementd addresses, each [name=]host:port; route across a multi-node plane (nodes are ring members by name, else by address)")
		qps      = fs.Float64("qps", 20000, "target placements/sec across all connections (0 = unpaced)")
		conns    = fs.Int("conns", 8, "concurrent connections (closed-loop submitters)")
		duration = fs.Duration("duration", 10*time.Second, "load duration")
		chunk    = fs.Int("chunk", 64, "jobs per place request")
		deadline = fs.Duration("deadline", time.Second, "per-request deadline")
		retries  = fs.Int("retries", 4, "bounded retries after shed (429) responses")
		backoff  = fs.Duration("backoff", 2*time.Millisecond, "first retry backoff (doubles per retry)")
		outcomes = fs.Bool("outcomes", false, "post one outcome per request batch (exercises /v1/outcome)")
		codec    = fs.String("codec", rpc.CodecJSON, "place codec: json, or binary (client-side pre-binning, frames on pooled stream sessions)")
		days     = fs.Float64("days", 1, "generated trace length in days")
		users    = fs.Int("users", 6, "generated trace users")
		seed     = fs.Int64("seed", 1, "generated trace seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *addr == "" && *nodes == "" {
		return fmt.Errorf("-addr or -nodes is required")
	}
	if *conns < 1 || *chunk < 1 {
		return fmt.Errorf("-conns and -chunk must be >= 1")
	}
	if *codec != rpc.CodecJSON && *codec != rpc.CodecBinary {
		return fmt.Errorf("-codec must be %q or %q, got %q", rpc.CodecJSON, rpc.CodecBinary, *codec)
	}
	if *nodes != "" && *addr != "" {
		return fmt.Errorf("-nodes routes across the plane it names; drop -addr")
	}

	gcfg := trace.DefaultGeneratorConfig("loadgen", *seed)
	gcfg.DurationSec = *days * 24 * 3600
	gcfg.NumUsers = *users
	pool := trace.NewGenerator(gcfg).Generate().Jobs
	if len(pool) < *chunk+1 {
		return fmt.Errorf("generated pool of %d jobs is smaller than one %d-job chunk; raise -days or -users", len(pool), *chunk)
	}

	// Single-node mode talks to one daemon through one shared client;
	// -nodes mode routes through the consistent-hash plane router. The
	// model probe goes to the daemon (or the plane's first node) so the
	// summary can report the serving version.
	var (
		client *rpc.Client
		rt     *router.Router
		target string
	)
	if *nodes != "" {
		entries, err := router.ParseNodes(*nodes)
		if err != nil {
			return err
		}
		rcfg := router.DefaultConfig(entries)
		rcfg.Client.Codec = *codec
		rcfg.Client.RequestTimeout = *deadline
		rcfg.Client.MaxRetries = *retries
		rcfg.Client.RetryBackoff = *backoff
		if rt, err = router.New(rcfg); err != nil {
			return err
		}
		defer rt.Close()
		_, first := router.SplitNode(entries[0])
		target = fmt.Sprintf("%d-node plane via %s", len(entries), first)
		ccfg := rpc.DefaultClientConfig(first)
		ccfg.RequestTimeout = *deadline
		if client, err = rpc.NewClient(ccfg); err != nil {
			return err
		}
	} else {
		target = "http://" + *addr
		ccfg := rpc.DefaultClientConfig(target)
		ccfg.Codec = *codec
		ccfg.RequestTimeout = *deadline
		ccfg.MaxRetries = *retries
		ccfg.RetryBackoff = *backoff
		var err error
		if client, err = rpc.NewClient(ccfg); err != nil {
			return err
		}
	}
	defer client.Close()
	info, err := client.ModelInfo(ctx)
	if err != nil {
		return fmt.Errorf("probing %s: %w", target, err)
	}
	var placer online.Placer = client
	if rt != nil {
		placer = rt
	}

	// Pacing: request n is due at start + n*interval, shared across
	// connections through one ticket counter. Each connection is
	// closed-loop — it never pipelines past its own in-flight request —
	// so offered load degrades gracefully when the daemon slows down.
	var interval time.Duration
	if *qps > 0 {
		interval = time.Duration(float64(*chunk) / *qps * float64(time.Second))
	}
	var (
		tickets    atomic.Int64
		placements atomic.Int64
		outPosts   atomic.Int64
		errCount   atomic.Int64
		wg         sync.WaitGroup
	)
	// Per-conn streaming histograms (nanoseconds) replace the old
	// unbounded per-conn latency slices: memory stays flat no matter how
	// long the run, at the cost of quantiles read from log-spaced buckets
	// (<= ~25% relative width, so a reported p99 is within one bucket of
	// the exact rank — the bound internal/obs documents and tests).
	latencies := make([]obs.Histogram, *conns)
	start := time.Now()
	end := start.Add(*duration)
	for w := 0; w < *conns; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				// Wall clock bounds the run in both modes: when the
				// daemon can't keep up with the offered rate, the
				// ticket schedule lags real time and would otherwise
				// stretch the run far past -duration.
				if !time.Now().Before(end) {
					return
				}
				n := tickets.Add(1) - 1
				if interval > 0 {
					sched := start.Add(time.Duration(n) * interval)
					if sched.After(end) {
						return
					}
					if wait := time.Until(sched); wait > 0 {
						select {
						case <-time.After(wait):
						case <-ctx.Done():
							return
						}
					}
				}
				lo := int(n) * *chunk % (len(pool) - *chunk)
				jobs := pool[lo : lo+*chunk]
				sent := time.Now()
				decs, err := placer.Place(ctx, jobs)
				if err != nil {
					errCount.Add(1)
					// Failed requests keep their measured duration —
					// dropping them would understate tail latency in
					// exactly the overload regime loadgen exists to
					// expose. Only our own shutdown is excluded.
					if ctx.Err() == nil {
						latencies[w].RecordDuration(time.Since(sent))
					}
					continue
				}
				latencies[w].RecordDuration(time.Since(sent))
				placements.Add(int64(len(decs)))
				if *outcomes {
					d0 := decs[0]
					o := sim.Outcome{WantedSSD: d0.Admit, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}
					// In plane mode the outcome routes by template to the
					// node that served the decision, like the place did.
					if err := placer.Observe(ctx, jobs[0], d0.Category, o); err == nil {
						outPosts.Add(1)
					} else {
						errCount.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lat obs.HistSnapshot
	for i := range latencies {
		snap := latencies[i].Snapshot()
		lat.Merge(&snap)
	}
	s := summary{
		Target:       target,
		ModelVersion: info.ModelVersion,
		Codec:        *codec,
		Conns:        *conns,
		Chunk:        *chunk,
		TargetQPS:    *qps,
		Elapsed:      elapsed,
		Requests:     lat.Count,
		Placements:   placements.Load(),
		Outcomes:     outPosts.Load(),
		Errors:       errCount.Load(),
		Client:       client.Stats(),
	}
	if rt != nil {
		s.Client = rt.ClientStats() // the probe client carried no load
		s.Router = rt.Stats()
		s.Nodes = rt.Nodes()
	}
	if elapsed > 0 {
		s.AchievedQPS = float64(s.Placements) / elapsed.Seconds()
	}
	if lat.Count > 0 {
		// Quantiles come from the merged histogram (bucket-interpolated);
		// the max is exact — the histogram tracks it alongside the counts.
		s.P50ms = lat.Quantile(0.50) / 1e6
		s.P95ms = lat.Quantile(0.95) / 1e6
		s.P99ms = lat.Quantile(0.99) / 1e6
		s.MaxMs = float64(lat.Max) / 1e6
	}
	writeSummary(stdout, s)
	// A signal mid-run is a graceful early stop: the summary above
	// covers whatever traffic ran.
	return nil
}

// summary aggregates one load run for reporting.
type summary struct {
	Target       string
	ModelVersion int
	Codec        string
	Conns, Chunk int
	TargetQPS    float64
	Elapsed      time.Duration
	Requests     int64
	Placements   int64
	Outcomes     int64
	Errors       int64
	Client       rpc.ClientStats
	Router       router.Stats
	Nodes        []router.NodeState
	AchievedQPS  float64
	P50ms        float64
	P95ms        float64
	P99ms        float64
	MaxMs        float64
}

// writeSummary renders the run report. The format is deterministic for
// fixed summary values and pinned by a golden test — scripts parse it.
func writeSummary(w io.Writer, s summary) {
	offered := "unpaced"
	if s.TargetQPS > 0 {
		offered = fmt.Sprintf("%.0f placements/sec", s.TargetQPS)
	}
	codec := s.Codec
	if codec == "" {
		codec = rpc.CodecJSON
	}
	fmt.Fprintf(w, "loadgen summary\n")
	fmt.Fprintf(w, "  target:    %s (model v%d, %s codec)\n", s.Target, s.ModelVersion, codec)
	fmt.Fprintf(w, "  offered:   %s over %d conns, %d-job requests\n", offered, s.Conns, s.Chunk)
	fmt.Fprintf(w, "  measured:  %.2fs wall, %d requests, %d placements, %d outcomes\n",
		s.Elapsed.Seconds(), s.Requests, s.Placements, s.Outcomes)
	fmt.Fprintf(w, "  achieved:  %.0f placements/sec\n", s.AchievedQPS)
	fmt.Fprintf(w, "  shedding:  %d sheds, %d retries, %d failures, %d request errors\n",
		s.Client.Sheds, s.Client.Retries, s.Client.Failures, s.Errors)
	if len(s.Nodes) > 0 {
		fmt.Fprintf(w, "  routing:   %d batches -> %d dispatches over %d nodes, %d reroutes, %d failovers, %d routed outcomes\n",
			s.Router.Batches, s.Router.Dispatches, len(s.Nodes), s.Router.Reroutes, s.Router.Failovers, s.Router.Outcomes)
		for _, ns := range s.Nodes {
			health := "healthy"
			if !ns.Healthy {
				health = "down"
			}
			entry := ns.URL // an unnamed node is its own name
			if ns.Name != ns.URL {
				entry = ns.Name + "=" + ns.URL
			}
			fmt.Fprintf(w, "  node:      %s %s (weight %.2f)\n", entry, health, ns.Weight)
		}
	}
	fmt.Fprintf(w, "  latency:   p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms\n",
		s.P50ms, s.P95ms, s.P99ms, s.MaxMs)
}
