package fleet

import (
	"fmt"
	"io"

	"repro/internal/experiments"
)

// Render writes the fleet comparison as a plain-text report: one row
// per cluster plus the fleet-aggregate line. Output is deterministic
// for a deterministic Report (fixed order, fixed precision), which is
// what the golden-file regression test pins.
func (r *Report) Render(w io.Writer) {
	online := false
	for i := range r.Clusters {
		if r.Clusters[i].Online != nil {
			online = true
		}
	}
	header := []string{"cluster", "test jobs", "quota", "per-cluster TCO%", "global TCO%", "transfer TCO%"}
	if online {
		header = append(header, "online TCO%", "retrains", "swaps", "v")
	}
	var rows [][]string
	for i := range r.Clusters {
		c := &r.Clusters[i]
		row := []string{
			c.Cluster,
			fmt.Sprintf("%d", c.TestJobs),
			fmt.Sprintf("%.1f%%", c.QuotaFrac*100),
			fmt.Sprintf("%.3f", c.PerCluster.TCOPct),
			fmt.Sprintf("%.3f", c.Global.TCOPct),
			fmt.Sprintf("%.3f", c.Transfer.TCOPct),
		}
		if online {
			if c.Online != nil {
				row = append(row,
					fmt.Sprintf("%.3f", c.Online.TCOPct),
					fmt.Sprintf("%d", c.Online.Retrains),
					fmt.Sprintf("%d", c.Online.Swaps),
					fmt.Sprintf("%d", c.Online.FinalVersion))
			} else {
				row = append(row, "-", "-", "-", "-")
			}
		}
		rows = append(rows, row)
	}
	experiments.Table(w, "Fleet — per-cluster vs global vs transfer models", header, rows)
	fmt.Fprintf(w, "\nfleet aggregate over %d test jobs (TCO saved / all-HDD TCO):\n", r.TotalTestJobs)
	fmt.Fprintf(w, "  per-cluster models: %.3f%%\n", r.PerClusterAggTCOPct)
	fmt.Fprintf(w, "  one global model:   %.3f%%\n", r.GlobalAggTCOPct)
	fmt.Fprintf(w, "  transfer (donor):   %.3f%%\n", r.TransferAggTCOPct)
	if online {
		fmt.Fprintf(w, "  online loop:        %.3f%%\n", r.OnlineAggTCOPct)
	}
}
