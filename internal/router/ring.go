// Package router is the distributed placement plane: a consistent-hash
// routing layer that spreads placement traffic across N placementd
// nodes, keyed by the same per-workload template hash the serving core
// shards on. One node owns each template, so a template's jobs land on
// one serving queue of one node and per-template state (batching,
// feedback) stays coherent — the single-node sharding story, scaled out.
//
// The pieces:
//
//   - Ring: a seeded virtual-node consistent-hash ring whose members
//     are node names (Config.Nodes' "name=" prefixes, or the URLs of
//     unnamed entries), so template ownership is a function of the seed
//     and the declared names alone, never of the ports nodes listen on.
//     Membership is rebuilt from the sorted member set, so join order
//     never changes routing, and a seed change re-deals the whole ring.
//   - Router: per-node rpc.Clients behind bounded-load routing with
//     health probing, shed-aware weight decay and reroute-on-failure.
//     Node clients AppendPlace into pooled buffers cleared after use.
//   - Replicator: bridges a source registry's Subscribe seam to every
//     node's registry, so gated model publishes (and rollbacks)
//     propagate fleet-wide with aligned version numbers.
//   - Plane: an in-process N-node plane, its nodes named 0…N-1, with
//     Kill/Restart fault injection, used by the e2e tests and the
//     loadgen smoke.
package router

import "sort"

// ringPoint is one virtual node: a position on the hash circle owned by
// a member.
type ringPoint struct {
	hash   uint64
	member int32 // index into members
}

// Ring is a seeded consistent-hash ring with virtual nodes. It is not
// safe for concurrent mutation; Router sets its members once, in New,
// and only routes on it after that.
// Routing is deterministic for a fixed (seed, member set): points are
// rebuilt from the sorted member list, so the order members joined —
// or rejoined after a failure — never influences key placement.
type Ring struct {
	seed    uint64
	members []string // sorted, distinct
	points  []ringPoint
}

// NewRing creates an empty ring with the given seed and ringReplicas
// virtual nodes per member.
func NewRing(seed uint64) *Ring {
	return &Ring{seed: seed}
}

// SetMembers replaces the membership wholesale. Duplicates collapse;
// the input order is irrelevant.
func (r *Ring) SetMembers(members []string) {
	set := map[string]struct{}{}
	r.members = r.members[:0]
	for _, m := range members {
		if _, dup := set[m]; dup {
			continue
		}
		set[m] = struct{}{}
		r.members = append(r.members, m)
	}
	sort.Strings(r.members)
	r.rebuild()
}

// rebuild recomputes every virtual node from the sorted member list.
func (r *Ring) rebuild() {
	n := len(r.members) * ringReplicas
	if cap(r.points) < n {
		r.points = make([]ringPoint, 0, n)
	}
	r.points = r.points[:0]
	for mi, m := range r.members {
		base := fnvSeed(r.seed, m)
		for v := 0; v < ringReplicas; v++ {
			r.points = append(r.points, ringPoint{
				hash:   mix64(base + uint64(v)*0x9e3779b97f4a7c15),
				member: int32(mi),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties break on the (sorted) member index so the ring
		// stays a pure function of the member set.
		return r.points[i].member < r.points[j].member
	})
}

// Route walks the ring clockwise from key's position over distinct
// members, offering each to accept in ownership order. It returns the
// first accepted member; a nil accept takes the first owner. ok is
// false when the ring is empty or accept refused every member — the
// bounded-load caller then falls back (see Router.assign).
func (r *Ring) Route(key uint64, accept func(member string) bool) (member string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := mix64(key ^ r.seed)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := 0
	var offered [64]bool // member-visited set; spills to a map beyond 64
	var spill map[int32]struct{}
	for i := 0; i < len(r.points) && seen < len(r.members); i++ {
		p := r.points[(start+i)%len(r.points)]
		if int(p.member) < len(offered) {
			if offered[p.member] {
				continue
			}
			offered[p.member] = true
		} else {
			if spill == nil {
				spill = map[int32]struct{}{}
			}
			if _, dup := spill[p.member]; dup {
				continue
			}
			spill[p.member] = struct{}{}
		}
		seen++
		m := r.members[p.member]
		if accept == nil || accept(m) {
			return m, true
		}
	}
	return "", false
}

// fnvSeed hashes s with 64-bit FNV-1a folded over the ring seed.
func fnvSeed(seed uint64, s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64) ^ seed
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix64 is the 64-bit finalizer (Murmur3/SplitMix style) that spreads
// structured inputs — sequential vnode indices, 32-bit template hashes
// — across the whole circle.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
