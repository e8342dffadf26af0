package perf

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/rpc"
)

// share is num over den, 0 when nothing was counted.
func share(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// serveCounterValues renders the serving core's own counters.
func serveCounterValues(s metrics.ShardSnapshot) map[string]float64 {
	return map[string]float64{
		"core.admit_share":          share(s.Admitted, s.Submitted),
		"serve.mean_batch_size":     s.MeanBatchSize,
		"serve.timeout_flush_share": share(s.TimeoutFlushes, s.Batches),
		"serve.drain_flush_share":   share(s.DrainFlushes, s.Batches),
	}
}

// clientCounterValues renders shed responses and re-sent attempts per
// logical client operation.
func clientCounterValues(c rpc.ClientStats) map[string]float64 {
	return map[string]float64{
		"rpc.shed_share":  share(c.Sheds, c.Requests),
		"rpc.retry_share": share(c.Retries, c.Requests),
	}
}

// routerCounterValues renders the router's dispatch counters and how
// unevenly the plane's nodes were loaded: the busiest node's placed
// jobs over the mean.
func routerCounterValues(rtr *router.Router, plane *router.Plane) map[string]float64 {
	s := rtr.Stats()
	var most, total int64
	nodes := len(plane.URLs())
	for i := 0; i < nodes; i++ {
		jobs := plane.Node(i).Stats().PlaceJobs
		total += jobs
		if jobs > most {
			most = jobs
		}
	}
	return map[string]float64{
		"router.groups_per_batch": share(s.Groups, s.Batches),
		"router.reroute_share":    share(s.Reroutes, s.Batches),
		"router.node_imbalance":   share(most*int64(nodes), total),
	}
}

// varzP50 scrapes a daemon's /varz for the median of one latency
// histogram, in nanoseconds.
func varzP50(baseURL, histogram string) (float64, error) {
	resp, err := http.Get(baseURL + "/varz")
	if err != nil {
		return 0, fmt.Errorf("perf: scraping varz: %w", err)
	}
	defer resp.Body.Close()
	key := histogram + "_p50 "
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), key); ok {
			ns, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, fmt.Errorf("perf: varz %s: %w", key, err)
			}
			return ns, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("perf: scraping varz: %w", err)
	}
	return 0, fmt.Errorf("perf: varz has no %s line", strings.TrimSpace(key))
}
