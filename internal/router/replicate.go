package router

import (
	"fmt"
	"sync"

	"repro/internal/registry"
)

// ReplicatorStats counts replication activity.
type ReplicatorStats struct {
	// Publishes counts versions replayed into follower registries
	// (catch-up and live).
	Publishes int64
	// Rollbacks counts active-version realignments (a source Rollback
	// mirrored to a follower).
	Rollbacks int64
	// Errors counts failed follower syncs (the follower keeps its last
	// consistent state; the next change retries).
	Errors int64
}

// Replicator bridges one source registry workload to any number of
// follower registries: it subscribes to the source's publish/rollback
// notifications and replays the full version history into each
// follower, in publish order, with the source's training timestamps —
// so version numbers are aligned fleet-wide and every node's 409
// re-fetch path hands clients bit-identical models and schemas.
//
// Followers must never publish to their replicated workload themselves;
// the replicator owns that name in each follower registry.
type Replicator struct {
	src      *registry.Registry
	workload string

	mu      sync.Mutex
	targets map[int]replTarget
	nextID  int
	stats   ReplicatorStats
	cancel  func()
}

// replTarget is one follower registry and the workload name the source
// history lands under.
type replTarget struct {
	reg      *registry.Registry
	workload string
}

// NewReplicator starts replication of workload from src. Followers
// attach with Attach; Close stops the subscription.
func NewReplicator(src *registry.Registry, workload string) *Replicator {
	r := &Replicator{src: src, workload: workload, targets: map[int]replTarget{}}
	// The registry runs callbacks synchronously on the publishing
	// goroutine and warns the payload may be stale under concurrent
	// publishes — syncAll re-reads the source history instead of
	// trusting the payload, exactly as the registry docs advise.
	r.cancel = src.Subscribe(workload, func(registry.Version) { r.syncAll() })
	return r
}

// Attach adds a follower: the source's history replays into reg under
// targetWorkload immediately (catch-up), then every future publish and
// rollback follows. The returned detach removes the follower (e.g. when
// its node is killed); a detached follower's registry is simply left
// behind. Attach fails if the source has no published version yet or
// the follower already diverged.
func (r *Replicator) Attach(reg *registry.Registry, targetWorkload string) (detach func(), err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := replTarget{reg: reg, workload: targetWorkload}
	if err := r.sync(t); err != nil {
		return nil, fmt.Errorf("router: attaching follower %q: %w", targetWorkload, err)
	}
	id := r.nextID
	r.nextID++
	r.targets[id] = t
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		delete(r.targets, id)
	}, nil
}

// Close stops the source subscription. Followers keep their replicated
// state.
func (r *Replicator) Close() { r.cancel() }

// Stats returns a copy of the replication counters.
func (r *Replicator) Stats() ReplicatorStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// syncAll re-syncs every follower after a source change.
func (r *Replicator) syncAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.targets {
		if err := r.sync(t); err != nil {
			r.stats.Errors++
		}
	}
}

// sync replays missing versions into one follower and realigns its
// active version with the source's. Callers hold r.mu.
func (r *Replicator) sync(t replTarget) error {
	srcVersions := r.src.Versions(r.workload)
	have := len(t.reg.Versions(t.workload))
	if have > len(srcVersions) {
		return fmt.Errorf("follower has %d versions, source only %d — not a replica", have, len(srcVersions))
	}
	for n := have + 1; n <= len(srcVersions); n++ {
		model, v, err := r.src.ResolveVersion(r.workload, n)
		if err != nil {
			return err
		}
		pub, err := t.reg.Publish(t.workload, model, v.TrainedAtSec)
		if err != nil {
			return err
		}
		if pub.Number != v.Number {
			return fmt.Errorf("follower assigned version %d to source version %d — history diverged", pub.Number, v.Number)
		}
		r.stats.Publishes++
	}
	_, active, err := r.src.Resolve(r.workload)
	if err != nil {
		return err
	}
	_, tActive, err := t.reg.Resolve(t.workload)
	if err != nil {
		return err
	}
	if tActive.Number != active.Number {
		if err := t.reg.Rollback(t.workload, active.Number); err != nil {
			return err
		}
		r.stats.Rollbacks++
	}
	return nil
}
