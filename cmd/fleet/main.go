// Command fleet runs the multi-cluster fleet simulation: N
// heterogeneous clusters generated from one seed, a model trained per
// cluster, and each cluster's test window evaluated under per-cluster
// vs one-global vs transfer models — the paper's deployment question
// at fleet scope. With -online, each cluster additionally replays its
// test window through the closed continuous-learning loop against a
// shared model registry (workload "cluster/<id>").
//
// With -rebalance, each cluster's test window is additionally replayed
// under its own model wrapped with the heat-aware global rebalancer
// (periodic knapsack re-solve by value-density fill).
//
// Usage:
//
//	fleet -clusters 4 -seed 1 -days 4 -users 8
//	fleet -clusters 4 -online
//	fleet -clusters 4 -rebalance
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

	"repro/byom"
	"repro/internal/obs"
)

func main() {
	// SIGINT/SIGTERM cancel the run between cluster shards: in-flight
	// shards drain (servers and learners shut down cleanly), later
	// shards never start.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fleet:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	var (
		clusters   = fs.Int("clusters", 4, "number of clusters in the fleet")
		seed       = fs.Int64("seed", 1, "base seed for specs, traces and training")
		days       = fs.Float64("days", 4, "trace days per cluster (half trains, half evaluates)")
		users      = fs.Int("users", 8, "base users per cluster (jittered per cluster)")
		workers    = fs.Int("workers", 0, "cluster-shard worker pool (0 = GOMAXPROCS; report is identical at any value)")
		rounds     = fs.Int("rounds", 12, "GBDT boosting rounds per model")
		categories = fs.Int("categories", 15, "importance categories per model")
		donor      = fs.Int("donor", 0, "donor cluster index for the transfer regime")
		withOnline = fs.Bool("online", false, "drive the closed online-learning loop per cluster")
		withRebal  = fs.Bool("rebalance", false, "evaluate a fourth regime: per-cluster model plus the heat-aware rebalancer")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	cfg := byom.DefaultFleetConfig(*clusters, *seed)
	cfg.Context = ctx
	cfg.Fleet.DurationSec = *days * 24 * 3600
	cfg.Fleet.Users = *users
	cfg.Workers = *workers
	cfg.Train.NumCategories = *categories
	cfg.Train.GBDT.NumRounds = *rounds
	cfg.DonorCluster = *donor
	if *withOnline {
		ocfg := byom.DefaultOnlineConfig(*categories)
		// Cadence and window sized so the loop actually fires inside a
		// few simulated days.
		ocfg.RetrainEverySec = 8 * 3600
		ocfg.MinRetrainJobs = 200
		ocfg.Drift.MinSamples = 200
		cfg.Online = &ocfg
	}
	if *withRebal {
		cfg.Rebalance = &byom.RebalanceConfig{}
	}

	rep, err := byom.RunFleet(cfg)
	if err != nil {
		return err
	}
	rep.Render(stdout)
	fmt.Fprintf(stdout, "\nfleet totals:\n")
	obs.WriteVars(stdout, "fleet", rep.Counters)
	return nil
}
