package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/online"
	"repro/internal/policy"
	"repro/internal/sim"
)

// The pins: testdata/<id>.golden is runner id's render at QuickOptions,
// written by the code before the runners moved into one table and
// compared, never rewritten (UPDATE_GOLDEN does not reach them). A diff
// means a paper number moved.

// shortPins are the runners cheap enough for -short (and so for the
// race-enabled CI job); every other figure runs only without -short.
var shortPins = map[string]bool{
	"fig1": true, "headroom": true, "fig4": true, "fig5": true, "fig9a": true,
	"fig13": true, "fig14": true, "fig16": true, "window": true, "drift": true,
}

// quickRuns holds each runner's result at QuickOptions, keyed by runner
// id, so that a figure's pin and its shape test share one run per test
// binary. The tests in this package do not run in parallel.
var quickRuns = map[string]renderer{}

// quick returns runner id's result at QuickOptions, skipping the calling
// test under -short unless the runner is a short pin.
func quick[R renderer](t *testing.T, id string) R {
	t.Helper()
	if testing.Short() && !shortPins[id] {
		t.Skip("slow experiment: skipped in -short mode")
	}
	res, ok := quickRuns[id]
	if !ok {
		var err error
		if res, err = runnerByID(id).run(QuickOptions()); err != nil {
			t.Fatal(err)
		}
		quickRuns[id] = res
	}
	return res.(R)
}

func runnerByID(id string) Runner {
	for _, r := range Runners {
		if r.ID == id {
			return r
		}
	}
	panic(fmt.Sprintf("no runner %q", id))
}

// checkPin compares runner id's render with testdata/<id>.golden.
func checkPin(t *testing.T, id string) {
	t.Helper()
	var buf bytes.Buffer
	quick[renderer](t, id).Render(&buf)
	got, path := buf.Bytes(), "testdata/"+id+".golden"
	if id == "fig9a" {
		// Compare masked copies: three cells time whichever machine
		// ran the render.
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		path = filepath.Join(t.TempDir(), id+".golden")
		if err := os.WriteFile(path, maskWallClock(want), 0o644); err != nil {
			t.Fatal(err)
		}
		got = maskWallClock(got)
	}
	if err := golden.Compare(path, got); err != nil {
		t.Error(err)
	}
}

// maskWallClock blanks fig9a's three timed rows, and the column padding
// their widths set, keeping every other cell.
func maskWallClock(b []byte) []byte {
	lines := strings.Split(string(b), "\n")
	for i, line := range lines {
		f := strings.Fields(line)
		if len(f) > 0 && (f[0] == "accumulated" || f[0] == "mean/job" || f[0] == "p99/job") {
			f = append(f[:1], "<wall clock>")
		}
		lines[i] = strings.Join(f, " ")
	}
	return []byte(strings.Join(lines, "\n"))
}

// olderPins were pinned before the table, under the test names below.
var olderPins = map[string]bool{"fig5": true, "fig13": true, "fig14": true, "drift": true}

// TestRunnersGolden pins every runner's render: a runner without a
// golden fails, and so does a golden without a runner.
func TestRunnersGolden(t *testing.T) {
	files, err := filepath.Glob("testdata/*.golden")
	if err != nil {
		t.Fatal(err)
	}
	stray := map[string]bool{}
	for _, f := range files {
		stray[f] = true
	}
	delete(stray, "testdata/tail.golden") // TestTailSavingsGolden's
	for _, r := range Runners {
		path := "testdata/" + r.ID + ".golden"
		if !stray[path] {
			t.Errorf("runner %s has no %s", r.ID, path)
		}
		delete(stray, path)
		if !olderPins[r.ID] {
			t.Run(r.ID, func(t *testing.T) { checkPin(t, r.ID) })
		}
	}
	for f := range stray {
		t.Errorf("%s pins no runner", f)
	}
}

// TestDriftReportGolden pins the rendered Drift report: any change to
// the generator, cost model, trainer, simulator or drift splice shows up
// as a diff here before it shows up as a silently shifted conclusion.
func TestDriftReportGolden(t *testing.T) { checkPin(t, "drift") }

// TestPrototypeFiguresGolden pins the rendered Fig 5, 13 and 14.
func TestPrototypeFiguresGolden(t *testing.T) {
	for _, id := range []string{"fig5", "fig13", "fig14"} {
		t.Run(id, func(t *testing.T) { checkPin(t, id) })
	}
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
	if err := golden.Compare("testdata/tail.golden", buf.Bytes()); err != nil {
		t.Error(err)
	}
}
