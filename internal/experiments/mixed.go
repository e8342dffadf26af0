package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"repro/internal/cost"
	"repro/internal/metrics"
)

// buildMixedSchedule reproduces Appendix C.1's mixed deployment:
// 4 HDD-suitable + 4 SSD-suitable framework pipelines together with
// 10 HDD-suitable ML-checkpointing and 10 SSD-suitable
// compress-upload-delete conventional workloads, at a 1:1 framework to
// non-framework byte ratio.
func buildMixedSchedule(seed int64) (*protoSchedule, error) {
	_, specs, err := frameworkPipelines()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x13))
	sched := &protoSchedule{}

	// Framework side: 8 pipelines x 24 executions.
	var fwBytes float64
	for _, spec := range specs {
		period := 400.0 + rng.Float64()*150
		phase := rng.Float64() * period
		for k := 0; k < 24; k++ {
			at := phase + float64(k)*period + rng.NormFloat64()*60
			if at < 0 {
				at = 0
			}
			s := spec
			s.InputBytes *= 0.7 + rng.Float64()*0.6
			fwBytes += s.InputBytes
			sched.execs = append(sched.execs, protoExecution{spec: s, startAt: at, class: "framework"})
		}
	}

	// Non-framework side: sized to roughly match framework bytes.
	var nfw []*nonFrameworkWorkload
	for i := 0; i < 10; i++ {
		// ML training checkpoints: large, long-held, rarely re-read.
		nfw = append(nfw, &nonFrameworkWorkload{
			name:      fmt.Sprintf("mlckpt%02d", i),
			fileBytes: 16 * (1 << 30),
			holdSec:   6 * 3600,
			readBack:  0.1,
			readOp:    8 << 20,
			category:  0, // the workload's own model: "we are HDD data"
		})
	}
	for i := 0; i < 10; i++ {
		// Compress-upload-delete: hot, short-lived temporary files.
		nfw = append(nfw, &nonFrameworkWorkload{
			name:      fmt.Sprintf("compress%02d", i),
			fileBytes: 1 << 30,
			holdSec:   120,
			readBack:  3,
			readOp:    128 * 1024,
			category:  14, // "we are hot, short-lived data"
			hot:       true,
		})
	}
	var nfwBytes float64
	horizon := 24.0 * 3600
	for _, w := range nfw {
		period := 1800.0
		if w.hot {
			period = 600
		}
		phase := rng.Float64() * period
		for at := phase; at < horizon; at += period * (0.8 + rng.Float64()*0.4) {
			sched.execs = append(sched.execs, protoExecution{
				nonFW: w, startAt: at, class: "non-framework",
			})
			nfwBytes += w.fileBytes
			if nfwBytes > fwBytes {
				break
			}
		}
		if nfwBytes > fwBytes {
			continue
		}
	}
	sched.sort()
	return sched, nil
}

// Fig13Result reproduces Figure 13: prototype TCO and TCIO savings for
// framework and non-framework workloads under FirstFit and
// AdaptiveRanking at 1% and 20% quota.
type Fig13Result struct {
	Rows []Fig13Row
	// Runtimes saves the per-class mean runtimes for Fig 14, keyed by
	// quota fraction then class: [AdaptiveRanking, FirstFit, all-HDD
	// baseline].
	Runtimes map[float64]map[string][3]float64
}

// Fig13Row is one (quota, class) cell pair.
type Fig13Row struct {
	QuotaFrac    float64
	Class        string
	RankingTCO   float64
	FirstFitTCO  float64
	RankingTCIO  float64
	FirstFitTCIO float64
}

// Fig13 runs the mixed deployment.
func Fig13(opts Options) (*Fig13Result, error) {
	sched, err := buildMixedSchedule(opts.Seed)
	if err != nil {
		return nil, err
	}
	cm := cost.Default()
	res := &Fig13Result{Runtimes: map[float64]map[string][3]float64{}}
	_, err = runQuotas(sched, opts, cm, func(frac float64, ff, ar, hdd *deploymentResult) error {
		ffS := accountSavings(ff, cm)
		arS := accountSavings(ar, cm)
		res.Runtimes[frac] = map[string][3]float64{}
		for _, class := range []string{"framework", "non-framework"} {
			fS, aS := ffS[class], arS[class]
			if fS == nil || aS == nil {
				return fmt.Errorf("experiments: fig13 missing class %q", class)
			}
			res.Rows = append(res.Rows, Fig13Row{
				QuotaFrac:    frac,
				Class:        class,
				RankingTCO:   aS.tcoPct(),
				FirstFitTCO:  fS.tcoPct(),
				RankingTCIO:  aS.tcioPct(),
				FirstFitTCIO: fS.tcioPct(),
			})
			res.Runtimes[frac][class] = [3]float64{metrics.Mean(ar.runtimes[class]),
				metrics.Mean(ff.runtimes[class]), metrics.Mean(hdd.runtimes[class])}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render writes the mixed-workload savings.
func (r *Fig13Result) Render(w io.Writer) {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", row.QuotaFrac*100),
			row.Class,
			fmt.Sprintf("%.3f", row.RankingTCO),
			fmt.Sprintf("%.3f", row.FirstFitTCO),
			fmt.Sprintf("%.3f", row.RankingTCIO),
			fmt.Sprintf("%.3f", row.FirstFitTCIO),
		})
	}
	Table(w, "Fig 13 — mixed workload prototype savings",
		[]string{"quota", "class", "AR TCO%", "FF TCO%", "AR TCIO%", "FF TCIO%"}, rows)
}

// Fig14Result reproduces Figure 14: application run-time savings per
// workload class, measured against the all-HDD baseline. Workloads are
// written assuming HDD performance, so any speedup is opportunistic and
// the requirement is that no workload regresses relative to that
// baseline.
type Fig14Result struct {
	Rows []Fig14Row
}

// Fig14Row is one (quota, class, method) runtime comparison.
type Fig14Row struct {
	QuotaFrac   float64
	Class       string
	Method      string
	RuntimeSec  float64
	BaselineSec float64 // all-HDD runtime
	SavingsPct  float64
}

// Fig14 derives runtime savings from the Fig 13 deployment.
func Fig14(opts Options) (*Fig14Result, error) {
	f13, err := Fig13(opts)
	if err != nil {
		return nil, err
	}
	res := &Fig14Result{}
	for frac, classes := range f13.Runtimes {
		for class, rt := range classes {
			ar, ff, hdd := rt[0], rt[1], rt[2]
			for _, mr := range []struct {
				method  string
				runtime float64
			}{{"AdaptiveRanking", ar}, {"FirstFit", ff}} {
				savings := 0.0
				if hdd > 0 {
					savings = 100 * (hdd - mr.runtime) / hdd
				}
				res.Rows = append(res.Rows, Fig14Row{
					QuotaFrac: frac, Class: class, Method: mr.method,
					RuntimeSec: mr.runtime, BaselineSec: hdd, SavingsPct: savings,
				})
			}
		}
	}
	sortFig14(res.Rows)
	return res, nil
}

func sortFig14(rows []Fig14Row) {
	sort.SliceStable(rows, func(a, b int) bool {
		x, y := rows[a], rows[b]
		if x.QuotaFrac != y.QuotaFrac {
			return x.QuotaFrac < y.QuotaFrac
		}
		if x.Class != y.Class {
			return x.Class < y.Class
		}
		return x.Method < y.Method
	})
}

// MinSavings returns the worst runtime savings (negative = regression).
func (r *Fig14Result) MinSavings() float64 {
	min := 1e18
	for _, row := range r.Rows {
		if row.SavingsPct < min {
			min = row.SavingsPct
		}
	}
	return min
}

// Render writes the runtime comparison.
func (r *Fig14Result) Render(w io.Writer) {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", row.QuotaFrac*100),
			row.Class,
			row.Method,
			fmt.Sprintf("%.1f", row.RuntimeSec),
			fmt.Sprintf("%.1f", row.BaselineSec),
			fmt.Sprintf("%.2f", row.SavingsPct),
		})
	}
	Table(w, "Fig 14 — application run-time savings vs all-HDD baseline",
		[]string{"quota", "class", "method", "mean s", "HDD s", "savings %"}, rows)
	fmt.Fprintf(w, "worst savings: %.2f%% (paper: no workload regresses)\n", r.MinSavings())
}
