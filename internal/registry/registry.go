// Package registry is the BYOM deployment substrate the paper's
// Section 2.3 motivates but does not detail: per-workload model
// management. Workloads evolve much faster than the storage system, so
// each workload publishes new model versions at its own release
// velocity; the framework resolves the current version at job start and
// can roll back a bad release.
//
// The registry is an in-process store: model rollout is an append to a
// workload's version list, with no storage-system involvement, which is
// the point of the BYOM design. A model that must outlive the process is
// saved by its owner (core.CategoryModel.SaveFile).
package registry

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
)

// Version identifies one published model of a workload.
type Version struct {
	Workload string
	// Number increases monotonically per workload, starting at 1.
	Number int
	// TrainedAtSec is the workload-provided training timestamp
	// (virtual time in simulations).
	TrainedAtSec float64
}

// entry pairs a version with its model.
type entry struct {
	version Version
	model   *core.CategoryModel
}

// Registry stores per-workload model versions. All methods are safe
// for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	entries map[string][]entry // workload -> versions ascending
	active  map[string]int     // workload -> active version number
	subs    map[string]map[int]func(Version)
	nextSub int
}

// New creates an in-memory registry.
func New() *Registry {
	return &Registry{
		entries: map[string][]entry{},
		active:  map[string]int{},
		subs:    map[string]map[int]func(Version){},
	}
}

// Subscribe registers fn to be called whenever the workload's active
// version changes (Publish or Rollback). Callbacks run synchronously on
// the publishing goroutine, outside the registry lock, so they may call
// back into the registry (e.g. Resolve) but should not block for long.
// Under concurrent publishes, callbacks can be delivered out of order,
// so the Version payload may be stale by the time a callback runs —
// subscribers that care about the current version should re-Resolve
// inside the callback rather than trusting the payload (as
// internal/serve does). The returned cancel function removes the
// subscription.
func (r *Registry) Subscribe(workload string, fn func(Version)) (cancel func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.nextSub
	r.nextSub++
	if r.subs[workload] == nil {
		r.subs[workload] = map[int]func(Version){}
	}
	r.subs[workload][id] = fn
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		delete(r.subs[workload], id)
		// Drop the per-workload map once empty: a fleet that churns
		// through cluster/<id> workloads must not accumulate one
		// empty map (and the callback it once held) per retired
		// subscription. Safe under double-cancel.
		if len(r.subs[workload]) == 0 {
			delete(r.subs, workload)
		}
	}
}

// Subscribers returns the number of active subscriptions across all
// workloads — an observability hook for shutdown and leak checks (a
// closed server or learner must leave no subscription behind).
func (r *Registry) Subscribers() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, m := range r.subs {
		n += len(m)
	}
	return n
}

// notify snapshots the workload's subscribers under the read lock and
// invokes them without it.
func (r *Registry) notify(workload string, v Version) {
	r.mu.RLock()
	fns := make([]func(Version), 0, len(r.subs[workload]))
	for _, fn := range r.subs[workload] {
		fns = append(fns, fn)
	}
	r.mu.RUnlock()
	for _, fn := range fns {
		fn(v)
	}
}

// Publish stores a new model version for a workload and makes it
// active. Returns the assigned version.
func (r *Registry) Publish(workload string, model *core.CategoryModel, trainedAtSec float64) (Version, error) {
	if workload == "" {
		return Version{}, fmt.Errorf("registry: empty workload name")
	}
	if model == nil {
		return Version{}, fmt.Errorf("registry: nil model")
	}
	r.mu.Lock()
	n := len(r.entries[workload]) + 1
	v := Version{Workload: workload, Number: n, TrainedAtSec: trainedAtSec}
	r.entries[workload] = append(r.entries[workload], entry{version: v, model: model})
	r.active[workload] = n
	r.mu.Unlock()
	r.notify(workload, v)
	return v, nil
}

// Resolve returns the active model of a workload, or an error if the
// workload never published (the framework then falls back to sending
// category 0 — the conservative "no hint" default).
func (r *Registry) Resolve(workload string) (*core.CategoryModel, Version, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n, ok := r.active[workload]
	if !ok || n == 0 {
		return nil, Version{}, fmt.Errorf("registry: no active model for %q", workload)
	}
	e := r.entries[workload][n-1]
	return e.model, e.version, nil
}

// ResolveVersion returns one specific published version of a workload,
// active or not. Replication (internal/router) uses it to replay a
// source registry's publish history into a follower registry in order,
// so version numbers stay aligned across a fleet of nodes.
func (r *Registry) ResolveVersion(workload string, number int) (*core.CategoryModel, Version, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	es := r.entries[workload]
	if number < 1 || number > len(es) {
		return nil, Version{}, fmt.Errorf("registry: %q has no version %d", workload, number)
	}
	e := es[number-1]
	return e.model, e.version, nil
}

// Rollback makes a previous version active again (a bad model release
// affects only its own workload — the blast-radius property of §2.3).
func (r *Registry) Rollback(workload string, toVersion int) error {
	r.mu.Lock()
	versions := r.entries[workload]
	if toVersion < 1 || toVersion > len(versions) {
		r.mu.Unlock()
		return fmt.Errorf("registry: %q has no version %d", workload, toVersion)
	}
	r.active[workload] = toVersion
	v := versions[toVersion-1].version
	r.mu.Unlock()
	r.notify(workload, v)
	return nil
}

// Workloads lists workloads with at least one published version.
func (r *Registry) Workloads() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for w := range r.entries {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// Residency is what a registry holds, in /varz order (obs.WriteVars):
// its versions over every workload and the sum of their models'
// gbdt.Model.ResidentBytes. No version is evicted, so both only grow.
type Residency struct {
	Versions int64 `varz:"resident_versions"`
	Bytes    int64 `varz:"resident_bytes"`
}

// Residency counts the versions the registry holds and their bytes.
func (r *Registry) Residency() Residency {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var res Residency
	for _, es := range r.entries {
		for _, e := range es {
			res.Versions++
			res.Bytes += int64(e.model.Model.ResidentBytes())
		}
	}
	return res
}

// Versions lists a workload's published versions ascending.
func (r *Registry) Versions(workload string) []Version {
	r.mu.RLock()
	defer r.mu.RUnlock()
	es := r.entries[workload]
	out := make([]Version, len(es))
	for i, e := range es {
		out[i] = e.version
	}
	return out
}
