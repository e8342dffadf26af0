// Command experiments regenerates the paper's tables and figures
// (experiments.Runners lists the ids; docs/ARCHITECTURE.md, "Paper
// section → package correspondence", maps them to packages). Every
// experiment prints a plain-text table with the same rows/series the
// paper plots.
//
// Usage:
//
//	experiments -fig all            # everything (minutes)
//	experiments -fig fig7           # one experiment
//	experiments -fig fig6 -quick    # reduced scale
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind main: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig   = fs.String("fig", "all", "experiment id or 'all'")
		quick = fs.Bool("quick", false, "reduced scale for a fast pass")
		seed  = fs.Int64("seed", 1, "experiment seed")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	opts := experiments.DefaultOptions()
	if *quick {
		opts = experiments.QuickOptions()
	}
	opts.Seed = *seed

	var selected []experiments.Runner
	var ids []string
	for _, r := range experiments.Runners {
		if *fig == "all" || r.ID == *fig {
			selected = append(selected, r)
		}
		ids = append(ids, r.ID)
	}
	if selected == nil {
		sort.Strings(ids)
		fmt.Fprintf(stderr, "experiments: unknown id %q; available: all %v\n", *fig, ids)
		return 2
	}

	for _, r := range selected {
		start := time.Now()
		fmt.Fprintf(stdout, "\n######## %s — %s\n", r.ID, r.Desc)
		if err := r.Run(opts, stdout); err != nil {
			fmt.Fprintf(stderr, "experiments: %s: %v\n", r.ID, err)
			return 1
		}
		fmt.Fprintf(stdout, "[%s done in %.1fs]\n", r.ID, time.Since(start).Seconds())
	}
	return 0
}
