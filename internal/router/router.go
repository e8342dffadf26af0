package router

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/rpc/wire"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The ring is fixed: every router deals it with ringSeed and
// ringReplicas virtual nodes per member, so routers over the same node
// names agree on template ownership. boundFactor is the bounded-load
// limit: a node accepts a template group only while its in-flight jobs
// stay under boundFactor × weight × its fair share; past it the walk
// spills the group to the next owner.
const (
	ringSeed     = 1
	ringReplicas = 64
	boundFactor  = 1.25
)

// Config tunes a placement router. The ring is not among its settings:
// it is fixed (see ringSeed), which is why routers agree.
type Config struct {
	// Nodes lists the placementd nodes the router spreads traffic over,
	// each a base URL ("http://host:port") with an optional "name="
	// prefix. The name is the node's ring member, so routers over the
	// same names agree on ownership wherever the nodes listen; an entry
	// without one is its own name. Required, at least one.
	Nodes []string
	// ProbeInterval is the health round's cadence (default 250 ms), and
	// it bounds one probe round trip too. A round sends /healthz only
	// to nodes that are down or answered no traffic since the last one.
	ProbeInterval time.Duration
	// MaxReroutes bounds how many times one batch may be re-dispatched
	// after node failures before the remainder fails (default 2).
	MaxReroutes int
	// Client is the per-node client template; BaseURL is overridden
	// with each node's URL. The zero value takes rpc defaults with the
	// binary codec.
	Client rpc.ClientConfig
}

// DefaultConfig returns router parameters for the given nodes:
// 250 ms probes, 2 reroutes and binary-codec clients.
func DefaultConfig(nodes []string) Config {
	ccfg := rpc.DefaultClientConfig("http://placeholder")
	ccfg.Codec = rpc.CodecBinary
	return Config{
		Nodes:         nodes,
		ProbeInterval: 250 * time.Millisecond,
		MaxReroutes:   2,
		Client:        ccfg,
	}
}

// ParseNodes turns a comma-separated node list, as the commands' -nodes
// flag takes it, into Config.Nodes entries: blanks are skipped, a
// "name=" prefix is kept and a bare host:port gets "http://".
func ParseNodes(list string) ([]string, error) {
	var entries []string
	for _, n := range strings.Split(list, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		name, url := "", n
		if i := strings.IndexByte(n, '='); i >= 0 {
			name, url = n[:i+1], n[i+1:]
		}
		if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
			url = "http://" + url
		}
		entries = append(entries, name+url)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("-nodes has no addresses")
	}
	return entries, nil
}

// SplitNode splits a Config.Nodes entry into its ring member name and
// the URL the router dials: "name=URL", or a bare URL that is its own
// name.
func SplitNode(entry string) (name, url string) {
	if name, url, named := strings.Cut(entry, "="); named {
		return name, url
	}
	return entry, entry
}

// node is the router's view of one placementd instance.
type node struct {
	url    string
	client *rpc.Client

	// dispatchLat streams the wall-clock latency of every Place dispatch
	// to this node (nanoseconds, including client retries). Lock-free —
	// recorded outside n.mu from the dispatch goroutines.
	dispatchLat obs.Histogram
	// answers counts the dispatches and outcomes the node answered
	// without error. A probe round sends no GET to a healthy node
	// whose count moved since the round before.
	answers atomic.Int64

	mu          sync.Mutex
	healthy     bool
	weight      float64 // routing weight in [0.05, 1]; decays under shed
	lastSheds   int64   // client shed count at the previous probe
	lastAnswers int64   // answers at the previous probe round
	inflight    int64   // jobs dispatched and not yet answered
}

// NodeState is one node's health as the router sees it (for /varz and
// tests): Name is its ring member, URL where the router dials it.
type NodeState struct {
	Name     string
	URL      string
	Healthy  bool
	Weight   float64
	Inflight int64
}

// Stats is a point-in-time copy of the router's dispatch counters, in
// /varz order (obs.WriteVars): batches and jobs routed across the plane,
// ring-group fan-out, failure handling and health-probe outcomes.
type Stats struct {
	Batches int64 `varz:"batches"`
	Jobs    int64 `varz:"jobs"`
	// Groups are the distinct templates batches split into, Dispatches
	// the per-node requests those groups merged down to.
	Groups     int64 `varz:"groups"`
	Dispatches int64 `varz:"dispatches"`
	// Reroutes counts sub-batches (or outcomes) moved to another node
	// after their node failed; Failovers nodes the router marked down
	// itself, ahead of the next probe; Failures batches and outcomes
	// returned to the caller with an error.
	Reroutes  int64 `varz:"reroutes"`
	Failovers int64 `varz:"failovers"`
	Failures  int64 `varz:"failures"`
	// Probes counts the /healthz GETs sent (a node that answered
	// traffic since the last round is not sent one) and ProbeFailures
	// the failed ones; WeightDecays counts shed-aware weight decays.
	Probes        int64 `varz:"probes"`
	ProbeFailures int64 `varz:"probe_failures"`
	WeightDecays  int64 `varz:"weight_decays"`
	// Outcomes counts outcomes delivered to their template's owner.
	Outcomes int64 `varz:"outcomes"`
}

// counters are Stats' live, atomically updated side, shared by every
// routing goroutine, the prober and snapshot readers.
type counters struct {
	batches, jobs, groups, dispatches   atomic.Int64
	reroutes, failovers, failures       atomic.Int64
	probes, probeFailures, weightDecays atomic.Int64
	outcomes                            atomic.Int64
}

// Router spreads placement batches across a plane of placementd nodes:
// jobs group by serve.TemplateHash, each group routes on the ring to a
// healthy node within its load bound, groups merge into one request per
// node, and failed dispatches mark the node down and reroute to the
// next owner. Safe for concurrent use by many submitters.
type Router struct {
	cfg      Config
	counters counters

	// ring and nodes are written only in New: membership is fixed, so
	// routing reads them without a lock. Each node's health has its
	// own n.mu.
	ring  *Ring
	nodes map[string]*node

	// scratch pools the per-call routing state of Place (*routeScratch),
	// node decisions buffers and bound senders included, so a routed
	// place allocates only the decisions it returns.
	scratch sync.Pool

	probeStop chan struct{}
	probeDone chan struct{}
}

// New builds a router over cfg.Nodes and starts its health prober.
// Close stops the prober and releases the per-node clients.
func New(cfg Config) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("router: needs at least one node URL")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.MaxReroutes < 0 {
		return nil, fmt.Errorf("router: MaxReroutes must be >= 0, got %d", cfg.MaxReroutes)
	}
	if cfg.Client.Codec == "" {
		cfg.Client = DefaultConfig(nil).Client
	}
	r := &Router{
		cfg:       cfg,
		ring:      NewRing(ringSeed),
		nodes:     map[string]*node{},
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	r.scratch.New = func() any {
		return &routeScratch{byKey: map[uint32]int{}, byNode: map[string]*nodeBatch{}}
	}
	members := make([]string, 0, len(cfg.Nodes))
	for _, entry := range cfg.Nodes {
		name, url := SplitNode(entry)
		if name == "" {
			return nil, fmt.Errorf("router: node %q has an empty name", entry)
		}
		if _, dup := r.nodes[name]; dup {
			return nil, fmt.Errorf("router: node %q: another entry is already node %q", entry, name)
		}
		ccfg := cfg.Client
		ccfg.BaseURL = url
		client, err := rpc.NewClient(ccfg)
		if err != nil {
			return nil, fmt.Errorf("router: node %q: %w", entry, err)
		}
		// Nodes start healthy at full weight: traffic flows before the
		// first probe lands, and a dead node is caught by its first
		// failed dispatch anyway.
		r.nodes[name] = &node{url: url, client: client, healthy: true, weight: 1}
		members = append(members, name)
	}
	r.ring.SetMembers(members)
	go r.probeLoop()
	return r, nil
}

// Close stops the prober and closes every node client.
func (r *Router) Close() {
	close(r.probeStop)
	<-r.probeDone
	for _, n := range r.nodes {
		n.client.Close()
	}
}

// Stats returns the router's dispatch-counter snapshot. Concurrent
// updates may tear between fields; each field is consistent.
func (r *Router) Stats() Stats {
	c := &r.counters
	return Stats{
		Batches:       c.batches.Load(),
		Jobs:          c.jobs.Load(),
		Groups:        c.groups.Load(),
		Dispatches:    c.dispatches.Load(),
		Reroutes:      c.reroutes.Load(),
		Failovers:     c.failovers.Load(),
		Failures:      c.failures.Load(),
		Probes:        c.probes.Load(),
		ProbeFailures: c.probeFailures.Load(),
		WeightDecays:  c.weightDecays.Load(),
		Outcomes:      c.outcomes.Load(),
	}
}

// Nodes returns every node's health state, sorted by URL.
func (r *Router) Nodes() []NodeState {
	out := make([]NodeState, 0, len(r.nodes))
	for name, n := range r.nodes {
		n.mu.Lock()
		out = append(out, NodeState{Name: name, URL: n.url, Healthy: n.healthy, Weight: n.weight, Inflight: n.inflight})
		n.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// NodeDispatch is one node's dispatch-latency histogram (for /varz).
type NodeDispatch struct {
	Name, URL string
	Hist      obs.HistSnapshot
}

// DispatchLatency returns every node's dispatch-latency histogram
// snapshot (nanoseconds per Place dispatch), sorted by URL as Nodes is.
func (r *Router) DispatchLatency() []NodeDispatch {
	out := make([]NodeDispatch, 0, len(r.nodes))
	for name, n := range r.nodes {
		out = append(out, NodeDispatch{Name: name, URL: n.url, Hist: n.dispatchLat.Snapshot()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// ClientStats merges every node client's operation counters.
func (r *Router) ClientStats() rpc.ClientStats {
	var total rpc.ClientStats
	for _, n := range r.nodes {
		s := n.client.Stats()
		total.Requests += s.Requests
		total.Sheds += s.Sheds
		total.Retries += s.Retries
		total.Failures += s.Failures
	}
	return total
}

// group is one template's slice of a batch: the routing key and the
// positions of its jobs in the caller's order.
type group struct {
	key     uint32
	indices []int
}

// routeScratch is one Place call's routing state, pooled by the Router:
// the template grouping, the per-node batches and the reroute lists.
// Everything in it is dead when Place returns; the decisions go out in a
// slice of their own.
type routeScratch struct {
	byKey   map[uint32]int // template key -> position in groups
	groups  []group        // first-seen order; indices are cut from backing
	which   []int          // first half job -> group, second half group -> job count
	backing []int          // every group's indices, back to back

	byNode  map[string]*nodeBatch // one batch per node name, reused across calls
	order   []*nodeBatch          // this attempt's batches, first-assigned order
	pending []group               // groups to re-route after a failed attempt
	failed  []*nodeBatch
	wg      sync.WaitGroup
}

// Place requests decisions for a batch of jobs across the plane,
// returning them in input order. Jobs group by template hash, each
// group routes to its ring owner (skipping unhealthy or over-bound
// nodes), and node failures reroute the affected groups to the next
// owner up to MaxReroutes times. A batch a node refuses as a bad
// request fails as it is: see clientFault.
func (r *Router) Place(ctx context.Context, jobs []*trace.Job) ([]wire.Decision, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("router: place request has no jobs")
	}
	sc := r.scratch.Get().(*routeScratch)
	defer r.scratch.Put(sc)
	groups := sc.groupByTemplate(jobs)
	out := make([]wire.Decision, len(jobs))

	pending := groups
	var excluded map[string]bool // made by the first failure
	dispatches := 0
	for attempt := 0; ; attempt++ {
		assign, err := r.assign(sc, pending, excluded)
		if err != nil {
			r.counters.failures.Add(1)
			return nil, err
		}
		dispatches += len(assign)
		failed := r.dispatch(ctx, sc, jobs, out, assign)
		if len(failed) == 0 {
			r.counters.batches.Add(1)
			r.counters.jobs.Add(int64(len(jobs)))
			r.counters.groups.Add(int64(len(groups)))
			r.counters.dispatches.Add(int64(dispatches))
			return out, nil
		}
		if ctx.Err() != nil {
			r.counters.failures.Add(1)
			return nil, ctx.Err()
		}
		stuck := 0
		for _, f := range failed {
			if clientFault(f.err) {
				r.counters.failures.Add(1)
				return nil, f.err
			}
			stuck += len(f.indices)
		}
		if attempt >= r.cfg.MaxReroutes {
			r.counters.failures.Add(1)
			return nil, fmt.Errorf("router: %d jobs still failing after %d reroutes: %w",
				stuck, attempt, failed[0].err)
		}
		// Re-split the failed node batches back into template groups and
		// re-route with the failed nodes excluded for this batch. The next
		// assign refills the node batches, so their groups move out first.
		if excluded == nil {
			excluded = map[string]bool{}
		}
		sc.pending = sc.pending[:0]
		for _, f := range failed {
			excluded[f.name] = true
			sc.pending = append(sc.pending, f.groups...)
			r.counters.reroutes.Add(1)
		}
		pending = sc.pending
	}
}

// clientFault reports whether err is a node's (or its client's) verdict
// that the request itself is wrong. Such an answer is final: the node
// that gave it is healthy, and the next owner would be handed the same
// garbage. Sheds and stale versions that outlasted the client's retries
// are not client faults; they still down the node and reroute.
func clientFault(err error) bool {
	var refused *rpc.Error
	return errors.As(err, &refused) && refused.Code == wire.ErrCodeBadRequest
}

// Observe routes one placement outcome to the node that owns the job's
// template — the same serve.TemplateHash key Place routes by, so the
// feedback lands on the daemon whose shard (and attached learner or
// heat tracker) served that workload's decisions. A node failure marks
// it down and retries the next ring owner, up to MaxReroutes times; an
// outcome the owner refuses as a bad request fails as it is.
func (r *Router) Observe(ctx context.Context, j *trace.Job, category int, o sim.Outcome) error {
	if j == nil {
		return fmt.Errorf("router: observe request has no job")
	}
	key := serve.TemplateHash(j)
	excluded := map[string]bool{}
	for attempt := 0; ; attempt++ {
		name, n, err := r.owner(key, excluded)
		if err != nil {
			r.counters.failures.Add(1)
			return err
		}
		err = n.client.Observe(ctx, j, category, o)
		if err == nil {
			n.answers.Add(1)
			r.counters.outcomes.Add(1)
			return nil
		}
		if ctx.Err() != nil {
			r.counters.failures.Add(1)
			return ctx.Err()
		}
		if clientFault(err) {
			r.counters.failures.Add(1)
			return err
		}
		n.mu.Lock()
		if n.healthy {
			n.healthy = false
			r.counters.failovers.Add(1)
		}
		n.mu.Unlock()
		if attempt >= r.cfg.MaxReroutes {
			r.counters.failures.Add(1)
			return fmt.Errorf("router: outcome for template %08x still failing after %d reroutes: %w",
				key, attempt, err)
		}
		excluded[name] = true
		r.counters.reroutes.Add(1)
	}
}

// owner picks the template's first live ring owner outside excluded —
// outcome routing skips the load bound: feedback posts are tiny and
// must land on the owning shard, not the least-loaded one.
func (r *Router) owner(key uint32, excluded map[string]bool) (string, *node, error) {
	name, ok := r.ring.Route(uint64(key), func(m string) bool {
		if excluded[m] {
			return false
		}
		n := r.nodes[m]
		n.mu.Lock()
		h := n.healthy
		n.mu.Unlock()
		return h
	})
	if !ok {
		return "", nil, fmt.Errorf("router: no live owner for template %08x", key)
	}
	return name, r.nodes[name], nil
}

// groupByTemplate splits a batch into per-template groups in first-seen
// order. Groups are counted first and then cut from one backing array,
// all of it in the scratch.
func (sc *routeScratch) groupByTemplate(jobs []*trace.Job) []group {
	n := len(jobs)
	if cap(sc.which) < 2*n {
		sc.which = make([]int, 2*n)
		sc.backing = make([]int, n)
	}
	which, sizes := sc.which[:n], sc.which[n:2*n] // job -> group, group -> job count
	clear(sizes)
	clear(sc.byKey)
	groups := sc.groups[:0]
	for i, j := range jobs {
		key := serve.TemplateHash(j)
		gi, ok := sc.byKey[key]
		if !ok {
			gi = len(groups)
			sc.byKey[key] = gi
			groups = append(groups, group{key: key})
		}
		which[i] = gi
		sizes[gi]++
	}
	off := 0
	for gi := range groups {
		groups[gi].indices = sc.backing[off : off : off+sizes[gi]]
		off += sizes[gi]
	}
	for i, gi := range which {
		groups[gi].indices = append(groups[gi].indices, i)
	}
	sc.groups = groups
	return groups
}

// nodeBatch is the merged per-node dispatch unit: the groups a node
// owns this attempt, their flattened job positions, the jobs at those
// positions and the buffer the node's decisions for them land in.
type nodeBatch struct {
	name    string
	groups  []group
	indices []int
	sub     []*trace.Job
	ds      []wire.Decision
	err     error

	// goSend sends the batch on a goroutine of its own with the Place
	// call's ctx, jobs and out, which dispatch sets before and clears
	// after. It is bound once, when assign makes the batch, so a go
	// statement through it allocates nothing.
	ctx    context.Context
	jobs   []*trace.Job
	out    []wire.Decision
	goSend func()
}

// assign routes every group to a node and merges groups per node. The
// bounded-load walk offers each group to owners in ring order and takes
// the first healthy node whose in-flight jobs stay within boundFactor ×
// weight × fair share; if every owner is over bound (but some are
// healthy), the group falls back to its first healthy owner — progress
// beats the bound when the whole plane is saturated.
func (r *Router) assign(sc *routeScratch, groups []group, excluded map[string]bool) ([]*nodeBatch, error) {
	live, totalInflight := 0, int64(0)
	var weightSum float64
	for name, n := range r.nodes {
		if excluded[name] {
			continue
		}
		n.mu.Lock()
		if n.healthy {
			live++
			weightSum += n.weight
			totalInflight += n.inflight
		}
		n.mu.Unlock()
	}
	if live == 0 {
		return nil, fmt.Errorf("router: no live nodes (%d configured, %d excluded this batch)", len(r.nodes), len(excluded))
	}

	for _, nb := range sc.order {
		nb.groups, nb.indices, nb.err = nb.groups[:0], nb.indices[:0], nil
	}
	sc.order = sc.order[:0]
	for _, g := range groups {
		gsize := int64(len(g.indices))
		// One node's fair share of the plane-wide in-flight load,
		// scaled by its health weight; the +gsize term keeps the bound
		// meaningful when the plane is idle.
		var fallback string
		accept := func(m string) bool {
			if excluded[m] {
				return false
			}
			n := r.nodes[m]
			n.mu.Lock()
			defer n.mu.Unlock()
			if !n.healthy {
				return false
			}
			if fallback == "" {
				fallback = m
			}
			share := (n.weight / weightSum) * float64(totalInflight+gsize)
			bound := int64(math.Ceil(boundFactor * (share + float64(gsize))))
			return n.inflight+gsize <= bound
		}
		name, ok := r.ring.Route(uint64(g.key), accept)
		if !ok {
			if fallback == "" {
				return nil, fmt.Errorf("router: no live owner for template %08x", g.key)
			}
			name = fallback
		}
		nb := sc.byNode[name]
		if nb == nil {
			nb = &nodeBatch{name: name}
			nb.goSend = func() {
				defer sc.wg.Done()
				r.send(nb.ctx, nb.jobs, nb.out, nb)
			}
			sc.byNode[name] = nb
		}
		if len(nb.groups) == 0 {
			sc.order = append(sc.order, nb)
		}
		nb.groups = append(nb.groups, g)
		nb.indices = append(nb.indices, g.indices...)
		// Count the assignment immediately so later groups in this same
		// batch see the updated load.
		n := r.nodes[name]
		n.mu.Lock()
		n.inflight += gsize
		n.mu.Unlock()
		totalInflight += gsize
	}
	return sc.order, nil
}

// dispatch sends every node batch concurrently, scatters decisions into
// out at their original positions, and returns the batches whose node
// failed (marking those nodes down). The last goes out on the caller's
// goroutine, which would otherwise only wait.
func (r *Router) dispatch(ctx context.Context, sc *routeScratch, jobs []*trace.Job, out []wire.Decision, batches []*nodeBatch) []*nodeBatch {
	last := len(batches) - 1
	for _, nb := range batches[:last] {
		nb.ctx, nb.jobs, nb.out = ctx, jobs, out
		sc.wg.Add(1)
		go nb.goSend()
	}
	r.send(ctx, jobs, out, batches[last])
	sc.wg.Wait()
	sc.failed = sc.failed[:0]
	for _, nb := range batches {
		nb.ctx, nb.jobs, nb.out = nil, nil, nil // the pool must not keep the caller's state
		if nb.err != nil {
			sc.failed = append(sc.failed, nb)
		}
	}
	return sc.failed
}

// send places one node batch into its pooled decisions buffer and
// scatters them into out, or records the failure in nb.err.
func (r *Router) send(ctx context.Context, jobs []*trace.Job, out []wire.Decision, nb *nodeBatch) {
	n := r.nodes[nb.name]
	nb.sub = nb.sub[:0]
	for _, idx := range nb.indices {
		nb.sub = append(nb.sub, jobs[idx])
	}
	dispatchStart := time.Now()
	nb.ds, nb.err = n.client.AppendPlace(ctx, nb.ds[:0], nb.sub)
	dispatchDur := time.Since(dispatchStart)
	clear(nb.sub) // the pool must not keep the caller's jobs alive
	n.dispatchLat.Record(dispatchDur.Nanoseconds())
	obs.TraceFrom(ctx).Span("router.dispatch", n.url, dispatchStart, dispatchDur)
	n.mu.Lock()
	n.inflight -= int64(len(nb.indices))
	if nb.err != nil && ctx.Err() == nil && !clientFault(nb.err) {
		// Any other dispatch failure — connection refused, a session
		// broken mid-frame, retries exhausted — downs the node until
		// a probe brings it back; the batch reroutes.
		if n.healthy {
			n.healthy = false
			r.counters.failovers.Add(1)
		}
	}
	n.mu.Unlock()
	if nb.err == nil {
		n.answers.Add(1)
		for i, idx := range nb.indices {
			out[idx] = nb.ds[i]
		}
	}
	clear(nb.ds[:cap(nb.ds)]) // nor their job IDs, wherever a failed decode left them
}
