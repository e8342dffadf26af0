// Command placementd runs the network-facing placement daemon: it
// trains (or loads) a category model, publishes it to an in-process
// registry and serves the JSON-over-HTTP wire protocol on -addr until
// SIGINT/SIGTERM, then drains gracefully and dumps its counters.
//
// Endpoints: POST /v1/place (single + batch), POST /v1/outcome
// (feedback), GET /v1/model, GET /healthz, GET /varz (counters, latency
// histograms and process metadata), GET /tracez (recent sampled request
// traces, keyed by the trace ID the ingress tier minted). With
// -debug-addr a second listener serves net/http/pprof and expvar.
//
// With -online it additionally attaches a continuous learner: outcome
// feedback posted to /v1/outcome feeds a sliding window, and gated
// retrains hot-swap the served model — the paper's closed loop, over
// the network.
//
// Usage:
//
//	placementd -addr 127.0.0.1:7070 -days 2 -users 6      # synthetic model
//	placementd -trace c0.jsonl -model model.json           # serve a bundle
//	placementd -online                                     # closed loop
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/registry"
	"repro/internal/rpc"
	"repro/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "placementd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("placementd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7070", "listen address (host:port; :0 picks a port)")
		workload   = fs.String("workload", "default", "registry workload namespace to serve")
		tracePath  = fs.String("trace", "", "training trace (JSON lines); empty generates a synthetic cluster")
		modelPath  = fs.String("model", "", "category model bundle; empty trains on the trace's first half")
		days       = fs.Float64("days", 2, "synthetic trace length in days")
		users      = fs.Int("users", 6, "synthetic trace users")
		seed       = fs.Int64("seed", 1, "synthetic trace seed")
		rounds     = fs.Int("rounds", 12, "GBDT rounds when training")
		categories = fs.Int("categories", 15, "categories when training")

		drain  = fs.Duration("drain", 10*time.Second, "graceful drain deadline on shutdown")
		sample = fs.Int("trace-sample", 100, "trace 1 in N requests at ingress (0 = only propagated IDs)")
		debug  = fs.String("debug-addr", "", "optional second listener for /debug/pprof and /debug/vars (empty = off)")

		onlineMode = fs.Bool("online", false, "attach a continuous learner fed by /v1/outcome")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	cm := cost.Default()
	model, trainJobs, err := loadOrTrain(*modelPath, *tracePath, *days, *users, *seed, *categories, *rounds, cm, stdout)
	if err != nil {
		return err
	}
	reg := registry.New()
	if _, err := reg.Publish(*workload, model, 0); err != nil {
		return err
	}

	cfg := rpc.DefaultConfig(model.NumCategories())
	cfg.TraceSampleEvery = *sample

	var learner *online.Learner
	if *onlineMode {
		lcfg := online.DefaultConfig(model.NumCategories())
		lcfg.Train.NumCategories = model.NumCategories()
		lcfg.Train.GBDT.NumRounds = *rounds
		lcfg.Async = true // network feedback must never block on a retrain
		learner, err = online.New(reg, *workload, cm, lcfg)
		if err != nil {
			return err
		}
		defer learner.Close()
		cfg.Learner = learner
	}

	d, err := rpc.NewDaemon(reg, *workload, cm, cfg)
	if err != nil {
		return err
	}
	if err := d.Start(*addr); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "placementd listening on http://%s (workload %q, model v%d, %d categories, %d train jobs)\n",
		d.Addr(), *workload, d.ModelVersion(), model.NumCategories(), trainJobs)
	if *debug != "" {
		ds, err := obs.StartDebugServer(*debug)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer ds.Close()
		fmt.Fprintf(stdout, "debug listener on http://%s (pprof, expvar)\n", ds.Addr())
	}

	<-ctx.Done()
	fmt.Fprintf(stdout, "signal received, draining (deadline %s)\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	drainErr := d.Shutdown(dctx)

	// Flush the final counters in the shared text exposition — the
	// same lines /varz served while the daemon was up. This happens
	// even when the drain deadline was exceeded: the operator's last
	// look at the counters must not depend on a clean drain.
	obs.WriteVars(stdout, "rpc", d.Stats())
	obs.WriteVars(stdout, "serve", d.ServeStats())
	if learner != nil {
		obs.WriteVars(stdout, "online", learner.Stats())
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	return nil
}

// loadOrTrain loads a model bundle, or trains one on the first half of
// the trace (loaded from disk or generated synthetically). It returns
// the model and how many jobs trained it (0 for a loaded bundle).
func loadOrTrain(modelPath, tracePath string, days float64, users int, seed int64, categories, rounds int, cm *cost.Model, stdout io.Writer) (*core.CategoryModel, int, error) {
	if modelPath != "" {
		model, err := core.LoadCategoryModelFile(modelPath)
		return model, 0, err
	}
	var full *trace.Trace
	if tracePath != "" {
		var err error
		if full, err = trace.LoadFile(tracePath); err != nil {
			return nil, 0, err
		}
	} else {
		cfg := trace.DefaultGeneratorConfig("C0", seed)
		cfg.DurationSec = days * 24 * 3600
		cfg.NumUsers = users
		full = trace.NewGenerator(cfg).Generate()
	}
	train, _ := full.SplitAt(full.Duration() / 2)
	opts := core.DefaultTrainOptions()
	opts.NumCategories = categories
	opts.GBDT.NumRounds = rounds
	fmt.Fprintf(stdout, "training %d-category model on %d jobs (%d rounds)\n",
		categories, len(train.Jobs), rounds)
	model, err := core.TrainCategoryModel(train.Jobs, cm, opts)
	return model, len(train.Jobs), err
}
