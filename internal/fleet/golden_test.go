package fleet

import (
	"bytes"
	"testing"

	"repro/internal/golden"
	"repro/internal/registry"
)

// TestFleetReportGolden pins the rendered fleet comparison (online
// loop included) at the small test preset. Together with the GOMAXPROCS
// determinism property this gives the fleet a regression net: the
// report cannot drift across refactors of any layer underneath it —
// generator, trainer, simulator, serving, online loop — without this
// test surfacing the exact rows that moved. Regenerate with UPDATE_GOLDEN=1.
func TestFleetReportGolden(t *testing.T) {
	cfg := testConfig(t)
	cfg.Online = testOnlineConfig()
	rep, err := Run(cfg, registry.New())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	golden.Check(t, "testdata/report.golden", buf.Bytes())
}
