package router

import (
	"io"
	"net/http"
	"time"

	"repro/internal/rpc/wire"
)

// probeLoop is the router's health prober: every ProbeInterval it folds
// each node's health — plus its observed shed rate — into the routing
// weight. Traffic is the health check: a healthy node that answered a
// dispatch or an outcome since the last round counts as a successful
// probe without a GET, so only nodes that are down or were quiet for a
// whole round are sent /healthz. A busy node that starts draining keeps
// answering on its open sessions until the drain expires them; the next
// dispatch there then fails over, and from then on the node is down and
// probed, and its 503 keeps it out.
//
// Weight dynamics, applied every round whether or not a GET went out:
//
//   - Probe failure (or non-200, e.g. 503 while draining): the node is
//     marked down; no traffic routes to it until a probe succeeds.
//   - Probe success after downtime: the node re-enters at reduced
//     weight (0.25) and ramps back up, so a restarted node refills
//     gradually instead of absorbing its full key range while cold.
//   - Sheds observed since the last probe (the node's client saw 429s):
//     weight halves, floored at 0.05 — the bounded-load walk spills
//     more of the node's templates to neighbours while it is
//     overloaded, without taking it out of rotation.
//   - Clean interval: weight recovers by +0.25 up to 1.
func (r *Router) probeLoop() {
	defer close(r.probeDone)
	// The prober owns its transport, so each node's probes share one
	// kept-alive connection, and closing the transport's idle
	// connections on exit leaves none open behind a closed router.
	// Client.Timeout is a probe's one deadline: dial, reply and body.
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: r.cfg.ProbeInterval}
	// Membership is fixed at New, so one node list serves every round.
	nodes := make([]*node, 0, len(r.nodes))
	for _, n := range r.nodes {
		nodes = append(nodes, n)
	}
	ticker := time.NewTicker(r.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.probeStop:
			return
		case <-ticker.C:
			r.probeAll(hc, nodes)
		}
	}
}

// probeAll runs one probe round over nodes.
func (r *Router) probeAll(hc *http.Client, nodes []*node) {
	for _, n := range nodes {
		answers := n.answers.Load()
		n.mu.Lock()
		answered := n.healthy && answers != n.lastAnswers
		n.lastAnswers = answers
		n.mu.Unlock()
		ok := answered
		if !answered {
			ok = probeHealthz(hc, n.url)
			r.counters.probes.Add(1)
		}
		sheds := n.client.Stats().Sheds
		n.mu.Lock()
		wasHealthy := n.healthy
		shedDelta := sheds - n.lastSheds
		n.lastSheds = sheds
		switch {
		case !ok:
			n.healthy = false
			r.counters.probeFailures.Add(1)
		case !wasHealthy && answered:
			// A failed dispatch downed the node after its answers were
			// counted: it stays down until a GET brings it back.
		case !wasHealthy:
			// Recovery: back in rotation at reduced weight.
			n.healthy = true
			n.weight = 0.25
		case shedDelta > 0:
			n.weight = n.weight / 2
			if n.weight < 0.05 {
				n.weight = 0.05
			}
			r.counters.weightDecays.Add(1)
		default:
			n.weight += 0.25
			if n.weight > 1 {
				n.weight = 1
			}
		}
		n.mu.Unlock()
	}
}

// probeHealthz reports whether the node's /healthz answered 200. It
// reads the short reply ("ok" or "draining") to EOF before closing it,
// which is what lets the transport keep the connection for the next
// probe; a reply past the bound costs only that reuse. A node that died
// fails on the kept connection, and the transport re-sends the GET on a
// fresh dial, which the dead port refuses.
func probeHealthz(hc *http.Client, baseURL string) bool {
	resp, err := hc.Get(baseURL + wire.PathHealth)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
