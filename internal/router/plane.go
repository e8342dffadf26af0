package router

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/cost"
	"repro/internal/registry"
	"repro/internal/rpc"
)

// Plane is an in-process N-node placement plane: N placementd daemons,
// named 0…N-1, on loopback ports, each serving the source workload
// under its own name from its own registry, all fed by one Replicator
// from a shared source registry. It exists for the fault-injection e2e
// tests and the multi-node loadgen smoke — Kill models a node crash
// (SIGKILL semantics via Daemon.Kill), Restart brings the node back on
// the same address with a fresh registry that catches up through
// replication.
type Plane struct {
	workload string
	cm       *cost.Model
	cfg      rpc.Config
	src      *registry.Registry
	repl     *Replicator

	mu    sync.Mutex
	nodes []*planeNode
}

// planeNode is one plane member. addr is pinned after the first Start
// so Restart rebinds the same port and the node's URL stays stable for
// routers across the crash.
type planeNode struct {
	id     string
	addr   string
	reg    *registry.Registry
	daemon *rpc.Daemon
	detach func()
	down   bool
}

// NewPlane builds and starts an n-node plane serving workload from src
// (which must already have a published version — nodes catch up through
// the replicator before they serve).
func NewPlane(src *registry.Registry, workload string, cm *cost.Model, cfg rpc.Config, n int) (*Plane, error) {
	if n < 1 {
		return nil, fmt.Errorf("router: plane needs at least 1 node, got %d", n)
	}
	p := &Plane{
		workload: workload,
		cm:       cm,
		cfg:      cfg,
		src:      src,
		repl:     NewReplicator(src, workload),
	}
	for i := 0; i < n; i++ {
		node := &planeNode{id: strconv.Itoa(i)}
		if err := p.startNode(node, "127.0.0.1:0"); err != nil {
			p.Close()
			return nil, err
		}
		p.nodes = append(p.nodes, node)
	}
	return p, nil
}

// startNode gives node a fresh registry, attaches it to the replicator
// (catch-up replay) and starts a daemon on addr. Callers hold p.mu or
// have exclusive access during construction.
func (p *Plane) startNode(node *planeNode, addr string) error {
	reg := registry.New()
	detach, err := p.repl.Attach(reg, p.workload)
	if err != nil {
		return err
	}
	d, err := rpc.NewDaemon(reg, p.workload, p.cm, p.cfg)
	if err != nil {
		detach()
		return err
	}
	if err := d.Start(addr); err != nil {
		detach()
		return fmt.Errorf("router: node %s: %w", node.id, err)
	}
	node.reg, node.daemon, node.detach, node.down = reg, d, detach, false
	node.addr = d.Addr()
	return nil
}

// URLs returns every node's base URL in node order. URLs are stable
// across Kill/Restart.
func (p *Plane) URLs() []string {
	out := p.Members()
	for i, m := range out {
		_, out[i] = SplitNode(m)
	}
	return out
}

// Members returns every node as a Config.Nodes entry, "name=URL" with
// node i named i, in node order. A router built from them deals
// template ownership by name, so it routes the same on every run
// whatever ports the nodes were given. Names and URLs are stable across
// Kill/Restart.
func (p *Plane) Members() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.nodes))
	for i, n := range p.nodes {
		out[i] = n.id + "=http://" + n.addr
	}
	return out
}

// Replicator exposes the plane's replication bridge (for stats and for
// tests that publish through the source).
func (p *Plane) Replicator() *Replicator { return p.repl }

// Node returns node i's daemon (nil while the node is down).
func (p *Plane) Node(i int) *rpc.Daemon {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.nodes[i].down {
		return nil
	}
	return p.nodes[i].daemon
}

// ModelVersion returns node i's serving version, or 0 while down.
func (p *Plane) ModelVersion(i int) int {
	if d := p.Node(i); d != nil {
		return d.ModelVersion()
	}
	return 0
}

// Kill crash-stops node i: connections sever mid-frame, the port
// closes, and the node detaches from replication (a dead process holds
// no registry). Idempotent while down.
func (p *Plane) Kill(i int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	node := p.nodes[i]
	if node.down {
		return nil
	}
	node.down = true
	node.detach()
	return node.daemon.Kill()
}

// Restart brings a killed node back on its original address with a
// fresh registry: the replicator's catch-up replay restores the full
// version history (including anything published while the node was
// down), so the node converges to the live model before serving.
func (p *Plane) Restart(i int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	node := p.nodes[i]
	if !node.down {
		return fmt.Errorf("router: node %s is not down", node.id)
	}
	return p.startNode(node, node.addr)
}

// Close drains every live node and stops replication.
func (p *Plane) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, node := range p.nodes {
		if node.down {
			continue
		}
		node.down = true
		node.detach()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = node.daemon.Shutdown(ctx)
		cancel()
	}
	p.repl.Close()
}
