// Command bench is the repository's benchmark: it drives one seeded
// fixture through seven named workloads and reports end-to-end or
// per-layer metrics by name. internal/perf does the work; see
// README.md beside this file for the glossary and how the bounds in
// BENCHMARK.json were derived.
//
// Usage:
//
//	bench -workload binary-paper -seed 1 -seconds 6 -trace 0    # one run, end-to-end metrics
//	bench -workload binary-paper -trace 1                       # one traced run, per-layer metrics
//	bench -runs 5 -out a.jsonl                                  # every workload, five seeds, into a file
//	bench -compare a.jsonl b.jsonl                              # verdict per (workload, metric)
//	bench -manifest                                             # print BENCHMARK.json
//
// The last line of standard output of a single run is one JSON object
// {"correct","attempted","failed","metrics"}; progress goes to standard
// error. The exit code is non-zero when any operation failed or any
// output was wrong.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"repro/internal/perf"
)

// errIncorrect marks a run that completed and printed its result but
// saw failures; main exits non-zero without printing it again.
var errIncorrect = errors.New("failures in run")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errIncorrect) {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "workload to run (empty = every workload, one process each)")
		seed      = fs.Int64("seed", 1, "fixture seed, the run's only randomness")
		seconds   = fs.Float64("seconds", perf.RunSeconds, "how long the measured phase lasts")
		traceMode = fs.Int("trace", 0, "0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
		traceOut  = fs.String("trace-out", "", "write the traced run's spans here as JSON lines (default .bench_build/spans-<workload>.jsonl)")
		scenarios = fs.String("scenarios", "scenarios", "scenario packages root")
		quick     = fs.Bool("quick", false, "smoke scale: small fixture, small models, short ledger")
		out       = fs.String("out", "", "append each run's record to this JSON-lines file")
		runs      = fs.Int("runs", 1, "with no -workload: repeat every workload this many times, on seeds seed, seed+1, …")
		compare   = fs.Bool("compare", false, "compare two -out files given as arguments")
		manifest  = fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	switch {
	case *manifest:
		_, err := stdout.Write(perf.Manifest())
		return err
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two files, got %d arguments", fs.NArg())
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	case *traceMode != 0 && *traceMode != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traceMode)
	case *workload == "":
		return runAll(args, *seed, *runs, stderr)
	}

	o := perf.Options{
		Workload:    *workload,
		Seed:        *seed,
		Seconds:     *seconds,
		Trace:       *traceMode == 1,
		Quick:       *quick,
		ScenarioDir: *scenarios,
		TraceOut:    *traceOut,
		Log:         stderr,
	}
	if o.Trace && o.TraceOut == "" {
		o.TraceOut = filepath.Join(".bench_build", "spans-"+o.Workload+".jsonl")
	}
	res, err := perf.Run(o)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := perf.AppendRecord(*out, perf.Record{Workload: o.Workload, Seed: o.Seed, Trace: o.Trace, Result: *res}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
		return err
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runAll re-executes this binary once per workload and seed, so every
// run starts from a fresh process, passing the caller's other flags
// through.
func runAll(args []string, seed int64, runs int, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for r := 0; r < runs; r++ {
		for _, w := range perf.Workloads() {
			child := append([]string{}, args...)
			child = append(child, "-workload", w.Name, "-seed", strconv.FormatInt(seed+int64(r), 10))
			cmd := exec.Command(self, child...)
			cmd.Stdout, cmd.Stderr = os.Stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", w.Name, seed+int64(r), err)
				failed++
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed", failed)
	}
	return nil
}

func compareFiles(a, b string, stdout io.Writer) error {
	before, err := perf.ReadRecords(a)
	if err != nil {
		return err
	}
	after, err := perf.ReadRecords(b)
	if err != nil {
		return err
	}
	if !perf.Compare(before, after, stdout) {
		return errIncorrect
	}
	return nil
}
