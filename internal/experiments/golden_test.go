package experiments

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/golden"
	"repro/internal/online"
	"repro/internal/policy"
	"repro/internal/sim"
)

// TestDriftReportGolden pins the rendered Drift report at the quick
// preset: any change to the generator, cost model, trainer, simulator
// or drift splice shows up as a diff here before it shows up as a
// silently shifted conclusion. Regenerate with UPDATE_GOLDEN=1.
func TestDriftReportGolden(t *testing.T) {
	res, err := Drift(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	golden.Check(t, "testdata/drift.golden", buf.Bytes())
}

// TestTailSavingsGolden pins TailSavingsPercent accounting: a frozen
// FirstFit replay of the drift scenario, with the tail savings
// evaluated at fixed cuts around the splice. The t=0 row must equal
// the whole-replay savings; later rows isolate the post-drift regime.
func TestTailSavingsGolden(t *testing.T) {
	sc, err := BuildDriftScenario(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	quota := sc.Replay.PeakSSDUsage() * 0.05
	res, err := sim.Run(sc.Replay, policy.FirstFit{}, sc.Pre.Cost,
		sim.Config{SSDQuota: quota, KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "replay jobs: %d  splice at: %gh  whole-replay TCO savings: %.3f%%\n",
		len(res.Records), sc.SpliceSec/3600, res.TCOSavingsPercent())
	for _, frac := range []float64{0, 0.5, 1.0, 1.5} {
		from := sc.SpliceSec * frac
		pct, err := online.TailSavingsPercent(res, sc.Pre.Cost, from)
		if err != nil {
			t.Fatalf("tail from %g: %v", from, err)
		}
		fmt.Fprintf(&buf, "tail from %6.1fh: %.3f%%\n", from/3600, pct)
	}
	// The full tail must reproduce the aggregate exactly.
	full, err := online.TailSavingsPercent(res, sc.Pre.Cost, 0)
	if err != nil {
		t.Fatal(err)
	}
	if full != res.TCOSavingsPercent() {
		t.Errorf("tail from 0 = %g, aggregate = %g", full, res.TCOSavingsPercent())
	}
	golden.Check(t, "testdata/tail.golden", buf.Bytes())
}

// TestPrototypeFiguresGolden pins the rendered Fig 5, 13 and 14 at the
// quick preset. The files were written before the prototype stack ran
// only under the discrete-event scheduler, and they are compared, never
// rewritten (UPDATE_GOLDEN does not reach them): a diff means a
// prototype number moved.
func TestPrototypeFiguresGolden(t *testing.T) {
	type renderer interface{ Render(io.Writer) }
	figs := map[string]func(Options) (renderer, error){
		"fig5":  func(o Options) (renderer, error) { return Fig5(o) },
		"fig13": func(o Options) (renderer, error) { return Fig13(o) },
		"fig14": func(o Options) (renderer, error) { return Fig14(o) },
	}
	for name, run := range figs {
		t.Run(name, func(t *testing.T) {
			r, err := run(QuickOptions())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			r.Render(&buf)
			if err := golden.Compare("testdata/"+name+".golden", buf.Bytes()); err != nil {
				t.Error(err)
			}
		})
	}
}
