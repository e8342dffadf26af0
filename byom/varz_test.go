package byom_test

import (
	"strings"
	"testing"

	"repro/byom"
	"repro/internal/obs"
	"repro/internal/rebalance"
	"repro/internal/router"
)

// TestWriteVarsAllTypes renders the serving, learner, daemon,
// rebalancer, router and client snapshots through the one exposition
// writer: each line must be a well-formed `<prefix>_<key> <value>`
// under its own prefix, and no key may be shared across types — /varz
// concatenates them.
func TestWriteVarsAllTypes(t *testing.T) {
	cases := []struct {
		prefix string
		snap   any
		lines  int
	}{
		{"serve", byom.ServeStats{}, 10},
		{"online", byom.OnlineStats{}, 10},
		{"rpc", byom.RPCStats{}, 12},
		{"rebalance", rebalance.Stats{}, 6},
		{"router", router.Stats{}, 11},
		{"router_client", byom.ClientStats{}, 4},
	}
	seen := map[string]bool{}
	for _, tc := range cases {
		var b strings.Builder
		obs.WriteVars(&b, tc.prefix, tc.snap)
		lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
		if len(lines) != tc.lines {
			t.Errorf("%s: %d lines, want %d", tc.prefix, len(lines), tc.lines)
		}
		for _, line := range lines {
			fields := strings.Fields(line)
			if len(fields) != 2 {
				t.Errorf("%s: malformed line %q", tc.prefix, line)
				continue
			}
			if !strings.HasPrefix(fields[0], tc.prefix+"_") {
				t.Errorf("%s: key %q missing prefix", tc.prefix, fields[0])
			}
			if seen[fields[0]] {
				t.Errorf("duplicate metric key %q across snapshot types", fields[0])
			}
			seen[fields[0]] = true
		}
	}
}
