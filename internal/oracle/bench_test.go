package oracle

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/trace"
)

// BenchmarkFractionalOracleClusterScale measures the LP relaxation over
// clique slots on a cluster-sized trace — the cost of one Fig. 7 bound
// point.
func BenchmarkFractionalOracleClusterScale(b *testing.B) {
	cfg := trace.DefaultGeneratorConfig("bench", 7)
	cfg.DurationSec = 2 * 24 * 3600
	tr := trace.NewGenerator(cfg).Generate()
	cm := cost.Default()
	quota := tr.PeakSSDUsage() * 0.05
	ocfg := DefaultConfig()
	ocfg.Fractional = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(tr.Jobs, quota, cm, ocfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Jobs)), "jobs")
}

// BenchmarkExactOracleSmall measures the branch-and-bound path.
func BenchmarkExactOracleSmall(b *testing.B) {
	cm := cost.Default()
	jobs := make([]*trace.Job, 0, 24)
	for i := 0; i < 24; i++ {
		jobs = append(jobs, hotJob(idFor(i), float64(i*40), 300, 200+float64(i%7)*100))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Solve(jobs, 1200, cm, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if !r.Exact {
			b.Fatal("expected exact solve")
		}
	}
}
