// Command tracestats inspects a trace: per-pipeline distributions,
// I/O-density histogram, the TCO/TCIO breakdown the cost model assigns,
// and the savings ceiling — the numbers a capacity planner looks at
// before running placement experiments.
//
// Usage:
//
//	tracestats -trace c0.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/byom"
	"repro/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracestats:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracestats", flag.ContinueOnError)
	var (
		tracePath = fs.String("trace", "", "input trace (JSON lines)")
		topN      = fs.Int("top", 10, "pipelines to list")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *tracePath == "" {
		return fmt.Errorf("-trace is required")
	}
	tr, err := byom.LoadTrace(*tracePath)
	if err != nil {
		return err
	}
	cm := byom.DefaultCostModel()

	var sizes, lifetimes, densities []float64
	var totalTCO, totalTCIO, posSave float64
	neg := 0
	type pipeAgg struct {
		name  string
		jobs  int
		bytes float64
		tco   float64
		save  float64
	}
	pipes := map[string]*pipeAgg{}
	for _, j := range tr.Jobs {
		sizes = append(sizes, j.SizeBytes)
		lifetimes = append(lifetimes, j.LifetimeSec)
		densities = append(densities, j.IODensity())
		tco := cm.TCOHDD(j)
		totalTCO += tco
		totalTCIO += cm.TCIO(j)
		s := cm.Savings(j)
		if s > 0 {
			posSave += s
		} else {
			neg++
		}
		pa := pipes[j.Pipeline]
		if pa == nil {
			pa = &pipeAgg{name: j.Pipeline}
			pipes[j.Pipeline] = pa
		}
		pa.jobs++
		pa.bytes += j.SizeBytes
		pa.tco += tco
		if s > 0 {
			pa.save += s
		}
	}

	fmt.Fprintf(stdout, "trace %s: %d jobs, %d pipelines, %.2f days\n",
		tr.Cluster, len(tr.Jobs), len(pipes), tr.Duration()/86400)
	fmt.Fprintf(stdout, "peak concurrent footprint: %.2f TiB\n", tr.PeakSSDUsage()/(1<<40))
	fmt.Fprintf(stdout, "negative-savings jobs:     %.1f%%\n", 100*float64(neg)/float64(len(tr.Jobs)))
	fmt.Fprintf(stdout, "savings ceiling:           %.2f%% of all-HDD TCO\n", 100*posSave/totalTCO)
	fmt.Fprintln(stdout)

	quantRow := func(name string, xs []float64, format string) {
		q := metrics.Quantiles(xs, []float64{0.1, 0.5, 0.9, 0.99})
		fmt.Fprintf(stdout, "%-14s p10=%s p50=%s p90=%s p99=%s\n", name,
			fmt.Sprintf(format, q[0]), fmt.Sprintf(format, q[1]),
			fmt.Sprintf(format, q[2]), fmt.Sprintf(format, q[3]))
	}
	gib := make([]float64, len(sizes))
	for i, s := range sizes {
		gib[i] = s / (1 << 30)
	}
	hours := make([]float64, len(lifetimes))
	for i, l := range lifetimes {
		hours[i] = l / 3600
	}
	quantRow("size (GiB)", gib, "%.2f")
	quantRow("lifetime (h)", hours, "%.2f")
	quantRow("I/O density", densities, "%.1f")
	fmt.Fprintln(stdout)

	// Density histogram in log space.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, d := range densities {
		if d <= 0 {
			continue
		}
		l := math.Log10(d)
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if hi > lo {
		// Eight equal bins over [lo, hi]; the top edge sits just above hi
		// so the densest job lands in the last bin, not past it.
		var counts [8]int
		span := hi + 1e-9 - lo
		for _, d := range densities {
			if d > 0 {
				b := int(8 * (math.Log10(d) - lo) / span)
				counts[min(max(b, 0), 7)]++
			}
		}
		fmt.Fprintln(stdout, "I/O density histogram (log10 bins):")
		for b, c := range counts {
			left := lo + (hi-lo)*float64(b)/8
			bar := ""
			for i := 0; i < c*50/len(tr.Jobs)+1 && c > 0; i++ {
				bar += "#"
			}
			fmt.Fprintf(stdout, "  10^%5.1f  %6d %s\n", left, c, bar)
		}
		fmt.Fprintln(stdout)
	}

	// Top pipelines by TCO.
	var list []*pipeAgg
	for _, pa := range pipes {
		list = append(list, pa)
	}
	sort.Slice(list, func(a, b int) bool { return list[a].tco > list[b].tco })
	if len(list) > *topN {
		list = list[:*topN]
	}
	fmt.Fprintf(stdout, "top %d pipelines by TCO:\n", len(list))
	fmt.Fprintf(stdout, "  %-28s %6s %10s %9s %10s\n", "pipeline", "jobs", "bytes(GiB)", "TCO share", "save ceil")
	for _, pa := range list {
		fmt.Fprintf(stdout, "  %-28s %6d %10.1f %8.1f%% %9.2f%%\n",
			pa.name, pa.jobs, pa.bytes/(1<<30), 100*pa.tco/totalTCO, 100*pa.save/totalTCO)
	}
	return nil
}
