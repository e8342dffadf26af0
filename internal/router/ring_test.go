package router

import (
	"fmt"
	"testing"

	"repro/internal/trace"
)

// ringMembers builds n member names.
func ringMembers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:7070", i+1)
	}
	return out
}

// TestRingMembershipOrderIrrelevant pins the determinism contract:
// routing is a pure function of (seed, member set) — the order members
// joined, rejoined, or were listed never changes key placement.
func TestRingMembershipOrderIrrelevant(t *testing.T) {
	members := ringMembers(5)
	const K = 1000

	canonical := NewRing(7)
	canonical.SetMembers(members)

	// Same set, reversed listing.
	reversed := NewRing(7)
	rev := make([]string, len(members))
	for i, m := range members {
		rev[len(members)-1-i] = m
	}
	reversed.SetMembers(rev)

	// Same set, listed in a scrambled join order.
	joined := NewRing(7)
	joined.SetMembers([]string{members[2], members[0], members[4], members[1], members[3]})

	// Same set after a leave + rejoin, the rejoiner listed last.
	rejoined := NewRing(7)
	rejoined.SetMembers(members)
	rejoined.SetMembers([]string{members[0], members[1], members[3], members[4]})
	rejoined.SetMembers([]string{members[0], members[1], members[3], members[4], members[2]})

	for k := uint64(0); k < K; k++ {
		want, ok := canonical.Route(k, nil)
		if !ok {
			t.Fatal("route on a populated ring failed")
		}
		for name, r := range map[string]*Ring{"reversed": reversed, "joined": joined, "rejoined": rejoined} {
			if got, _ := r.Route(k, nil); got != want {
				t.Fatalf("key %d: %s ring routes to %s, canonical to %s", k, name, got, want)
			}
		}
	}

	// A different seed deals a different ring.
	other := NewRing(8)
	other.SetMembers(members)
	same := 0
	for k := uint64(0); k < K; k++ {
		a, _ := canonical.Route(k, nil)
		b, _ := other.Route(k, nil)
		if a == b {
			same++
		}
	}
	if same == K {
		t.Error("seeds 7 and 8 produced identical rings")
	}
}

// TestRingRouteWalk checks the accept walk: owners are offered in ring
// order, each distinct member exactly once, and a ring whose members
// all refuse reports !ok.
func TestRingRouteWalk(t *testing.T) {
	members := ringMembers(4)
	r := NewRing(1)
	r.SetMembers(members)

	var offered []string
	_, ok := r.Route(42, func(m string) bool {
		offered = append(offered, m)
		return false
	})
	if ok {
		t.Error("route succeeded though accept refused everyone")
	}
	if len(offered) != len(members) {
		t.Fatalf("walk offered %d members, want %d", len(offered), len(members))
	}
	seen := map[string]bool{}
	for _, m := range offered {
		if seen[m] {
			t.Fatalf("walk offered %s twice", m)
		}
		seen[m] = true
	}

	// Accepting only the last-offered member routes there.
	want := offered[len(offered)-1]
	got, ok := r.Route(42, func(m string) bool { return m == want })
	if !ok || got != want {
		t.Errorf("selective accept routed to %q (%v), want %q", got, ok, want)
	}

	// Empty ring: no route.
	if _, ok := NewRing(1).Route(42, nil); ok {
		t.Error("empty ring produced a route")
	}
}

// TestRingRebalanceBounds is the rebalancing property test: on a
// member leave, only the leaver's keys move; on a rejoin the original
// placement is restored exactly; on a join, keys move only TO the new
// member and their count stays within its fair share plus the
// virtual-node variance slack (ceil(K/N) + K/8 for 64 vnodes).
func TestRingRebalanceBounds(t *testing.T) {
	const K = 2000
	for seed := uint64(1); seed <= 3; seed++ {
		for n := 3; n <= 6; n++ {
			members := ringMembers(n)
			r := NewRing(seed)
			r.SetMembers(members)
			before := make([]string, K)
			for k := range before {
				before[k], _ = r.Route(uint64(k), nil)
			}

			// Leave: keys not owned by the leaver must not move.
			r.SetMembers(members[1:])
			for k := range before {
				got, _ := r.Route(uint64(k), nil)
				if before[k] == members[0] {
					if got == members[0] {
						t.Fatalf("seed %d n %d: key %d still routes to removed member", seed, n, k)
					}
				} else if got != before[k] {
					t.Fatalf("seed %d n %d: key %d moved %s -> %s on an unrelated leave", seed, n, k, before[k], got)
				}
			}

			// Rejoin: placement is restored bit-for-bit.
			r.SetMembers(members)
			for k := range before {
				if got, _ := r.Route(uint64(k), nil); got != before[k] {
					t.Fatalf("seed %d n %d: key %d at %s after rejoin, want %s", seed, n, k, got, before[k])
				}
			}

			// Join: moved keys all land on the joiner, within its share.
			joiner := "http://10.0.0.99:7070"
			r.SetMembers(append(members[:n:n], joiner))
			moved := 0
			for k := range before {
				got, _ := r.Route(uint64(k), nil)
				if got != before[k] {
					if got != joiner {
						t.Fatalf("seed %d n %d: key %d moved %s -> %s, not to the joiner", seed, n, k, before[k], got)
					}
					moved++
				}
			}
			bound := (K+n)/(n+1) + K/8 // ceil(K/N_after) + vnode-variance slack
			if moved > bound {
				t.Errorf("seed %d n %d: join moved %d of %d keys, bound %d", seed, n, moved, K, bound)
			}
			if moved == 0 {
				t.Errorf("seed %d n %d: join moved no keys", seed, n)
			}
		}
	}
}

// TestUnnamedRingRoutesAsBefore pins the owners of 24 templates on a
// router over three unnamed nodes, as routers dealt them before nodes
// could be named: an entry without a "name=" prefix is its own ring
// member, so such a config routes as it always has.
func TestUnnamedRingRoutesAsBefore(t *testing.T) {
	nodes, err := ParseNodes("127.0.0.1:7070,127.0.0.1:7071,127.0.0.1:7072")
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(DefaultConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const ports = "222012221121202221112010" // the last digit of each owner's port
	for i := range len(ports) {
		owner, _ := routeKey(r, trace.TemplateHash(fmt.Sprintf("pipeline-%d", i), "step"))
		if want := "http://127.0.0.1:707" + ports[i:i+1]; owner != want {
			t.Errorf("template %d routes to %q, want %q", i, owner, want)
		}
	}
}
