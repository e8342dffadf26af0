//go:build !race

package sim

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/trace"
)

// TestRunSteadyStateAllocs: the replay loop itself allocates its Result
// and nothing per job — releases are pushed and popped unboxed, on a
// heap array kept from the previous run. (Not under -race: sync.Pool
// drops items at random there.)
func TestRunSteadyStateAllocs(t *testing.T) {
	cfg := trace.DefaultGeneratorConfig("C0", 5)
	cfg.DurationSec = 3 * 24 * 3600
	tr := trace.NewGenerator(cfg).Generate()
	if len(tr.Jobs) < 4096 {
		t.Fatalf("generated trace holds %d jobs, want 4,096", len(tr.Jobs))
	}
	cm := cost.Default()
	for _, n := range []int{1024, 4096} {
		part := &trace.Trace{Cluster: tr.Cluster, Jobs: tr.Jobs[:n]}
		quota := 0.05 * part.PeakSSDUsage()
		replay := func() {
			if _, err := Run(part, always{}, cm, Config{SSDQuota: quota}); err != nil {
				t.Fatal(err)
			}
		}
		replay() // grow the pooled heap
		if allocs := testing.AllocsPerRun(10, replay); allocs > 1 {
			t.Errorf("%d-job replay: %.0f allocations, want 1 (the Result)", n, allocs)
		}
	}
}
