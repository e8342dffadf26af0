// Command scenario runs the declarative workload suite: it discovers
// scenarios/<name>/ packages (a scenario.json spec, an expected
// report.golden, optional thresholds.json), executes each on a
// bounded worker pool, diffs the rendered report against the golden,
// checks measured stats against the thresholds, and prints one
// PASS/FAIL line per scenario. Any golden diff, threshold violation
// or pipeline error makes the command exit non-zero — this is the
// regression gate CI runs.
//
// Usage:
//
//	scenario                         # run the whole checked-in suite
//	scenario -run burst              # subset by name regexp
//	scenario -run burst -update      # re-golden after an intended change
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"

	"repro/internal/scenario"
)

// errFailed marks scenario failures that were already reported line
// by line; main exits non-zero without printing it again.
var errFailed = errors.New("scenario failures")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errFailed) {
			fmt.Fprintln(os.Stderr, "scenario:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	var (
		dir     = fs.String("dir", "scenarios", "scenario packages root")
		runRe   = fs.String("run", "", "run only scenarios whose name matches this regexp")
		workers = fs.Int("workers", 0, "scenario worker pool (0 = GOMAXPROCS; reports are identical at any value)")
		update  = fs.Bool("update", false, "rewrite each scenario's report.golden with this run's report")
		verbose = fs.Bool("v", false, "print each scenario's full report")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	cfg := scenario.RunnerConfig{Dir: *dir, Workers: *workers, Update: *update}
	if *runRe != "" {
		re, err := regexp.Compile(*runRe)
		if err != nil {
			return fmt.Errorf("bad -run regexp: %w", err)
		}
		cfg.Filter = re
	}
	outcomes, err := scenario.RunAll(cfg)
	if err != nil {
		return err
	}
	var passed, failed int
	for _, o := range outcomes {
		switch {
		case o.Passed():
			passed++
			s := o.Result.Stats
			tag := "PASS"
			if o.Updated {
				tag = "PASS (golden updated)"
			}
			fmt.Fprintf(stdout, "%s %s: TCO %.3f%%, %d jobs, %.0f jobs/s\n",
				tag, o.Pkg.Name, s.TCOPct, s.Jobs, s.JobsPerSec)
		default:
			failed++
			fmt.Fprintf(stdout, "%s %s:\n", o.Status(), o.Pkg.Name)
			for _, f := range o.Failures() {
				fmt.Fprintf(stdout, "  %s\n", f)
			}
		}
		if *verbose && o.Result != nil {
			fmt.Fprintf(stdout, "--- report %s ---\n%s\n", o.Pkg.Name, o.Result.Report)
		}
	}
	fmt.Fprintf(stdout, "scenario suite: %d passed, %d failed (%d run)\n",
		passed, failed, len(outcomes))
	if failed > 0 {
		return errFailed
	}
	return nil
}
