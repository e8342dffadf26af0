package oracle

import (
	"math"
	"sort"
)

// relax solves the LP relaxation of the oracle problem exactly: maximize
// Σ (v_j/s_j)·y_j subject to Σ_{j live in slot t} y_j ≤ caps[t] and
// 0 ≤ y_j ≤ s_j, where y_j is the number of bytes of candidate j on SSD
// and candidate j is live in slots lo[j] through hi[j]-1. Every job
// occupies one contiguous run of slots, so the constraint matrix is an
// interval matrix and the LP is a min-cost circulation on the slot
// boundaries: one arc t→t+1 per slot (capacity caps[t], cost 0) and one
// arc hi→lo per candidate (capacity s_j, cost −v_j/s_j).
//
// Candidates join one at a time, in decreasing value per byte, and the
// circulation stays optimal for those already in. A candidate whose
// slots already cost at least its value per byte goes in unplaced, at
// no further work. Any other is placed whole, and its s_j bytes of
// excess at lo are sent back to hi along shortest paths on reduced
// costs: the free slot arcs straight to hi when they are all at equal
// potential, else Dijkstra from lo, stopped at hi. Whatever flow a path
// pushes through a job arc's reverse unplaces that many of the job's
// bytes.
//
// prices[t] ≥ 0 is the dual of slot t's capacity row. At these prices
// the Lagrangian bound Σ_t caps[t]·prices[t] + Σ_j max(0, v_j − s_j·Σ_{t∈I_j} prices[t])
// equals the relaxation's value, so anyone can check the bound in
// O(n + T) without trusting the solver.
func relax(cands []candidate, lo, hi []int, caps []float64) (y, prices []float64) {
	g := newFlowGraph(len(caps)+1, len(caps)+len(cands))
	for t, c := range caps {
		g.add(t, t+1, c, 0, 0)
	}
	perByte := func(j int) float64 { return cands[j].value / cands[j].job.SizeBytes }
	order := make([]int, len(cands))
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool { return perByte(order[a]) > perByte(order[b]) })

	arcOf := make([]int, len(cands))
	for _, j := range order {
		src, dst, s, w := lo[j], hi[j], cands[j].job.SizeBytes, perByte(j)
		arcOf[j] = len(g.arcs)
		if g.pi[dst]-g.pi[src] >= w {
			g.add(dst, src, s, 0, -w) // priced out
			continue
		}
		g.add(dst, src, 0, s, -w)
		for rem := s; rem > 0; rem -= g.augment(src, dst, rem) {
			if !g.walk(src, dst) && !g.dijkstra(src, dst) {
				break // cannot happen: j's own reverse arc reaches dst
			}
		}
	}

	y = make([]float64, len(cands))
	for j, c := range cands {
		// The reverse of candidate j's arc holds the bytes still placed,
		// up to float round-off.
		y[j] = math.Min(c.job.SizeBytes, g.arcs[arcOf[j]+1].res)
	}
	prices = make([]float64, len(caps))
	for t := range prices {
		prices[t] = math.Max(0, g.pi[t+1]-g.pi[t])
	}
	return y, prices
}

// flowGraph is a residual network with node potentials that keep every
// residual arc's reduced cost cost+pi[u]−pi[v] non-negative. Arcs come
// in pairs: arc a's reverse is a^1, with the opposite cost.
type flowGraph struct {
	arcs []flowArc
	adj  [][]int32 // arc ids by tail node
	pi   []float64
	// prev holds the arc into each node on the last path found. dist,
	// settled, touched and heap are Dijkstra's scratch, reset after each
	// search on the nodes it touched.
	prev    []int32
	dist    []float64
	settled []bool
	touched []int32
	heap    distHeap
}

type flowArc struct {
	to        int32
	res, cost float64
}

func newFlowGraph(nodes, arcPairs int) *flowGraph {
	g := &flowGraph{
		arcs: make([]flowArc, 0, 2*arcPairs), adj: make([][]int32, nodes), pi: make([]float64, nodes),
		prev: make([]int32, nodes), dist: make([]float64, nodes), settled: make([]bool, nodes),
	}
	for v := range g.dist {
		g.dist[v] = math.Inf(1)
	}
	return g
}

// add appends the pair u→v (residual res) and v→u (residual back).
func (g *flowGraph) add(u, v int, res, back, cost float64) {
	a := int32(len(g.arcs))
	g.arcs = append(g.arcs, flowArc{int32(v), res, cost}, flowArc{int32(u), back, -cost})
	g.adj[u] = append(g.adj[u], a)
	g.adj[v] = append(g.adj[v], a+1)
}

// walk records in prev the path src→dst along forward slot arcs, if
// each has residual capacity and no potential drop: a path of zero
// reduced cost, so a shortest one. Slot t's forward arc is arc 2t.
func (g *flowGraph) walk(src, dst int) bool {
	for t := src; t < dst; t++ {
		if g.arcs[2*t].res <= 0 || g.pi[t+1] < g.pi[t] {
			return false
		}
		g.prev[t+1] = int32(2 * t)
	}
	return true
}

// dijkstra records in prev a shortest src→dst path on reduced costs and
// updates the potentials of the nodes it settled, keeping every reduced
// cost non-negative. It pushes no node whose distance is already no
// shorter than dst's.
func (g *flowGraph) dijkstra(src, dst int) bool {
	arcs, pi, dist, prev, settled := g.arcs, g.pi, g.dist, g.prev, g.settled
	dist[src], g.touched = 0, append(g.touched[:0], int32(src))
	g.heap = append(g.heap[:0], heapItem{0, int32(src)})
	for len(g.heap) > 0 {
		u := g.heap.pop().v
		if settled[u] {
			continue
		}
		settled[u] = true
		if int(u) == dst {
			break
		}
		for _, a := range g.adj[u] {
			arc := &arcs[a]
			v := arc.to
			if arc.res <= 0 || settled[v] {
				continue
			}
			d := dist[u]
			if rc := arc.cost + pi[u] - pi[v]; rc > 0 {
				d += rc // rc < 0 is float round-off of a zero
			}
			if d < dist[v] && d < dist[dst] {
				if math.IsInf(dist[v], 1) {
					g.touched = append(g.touched, v)
				}
				dist[v], prev[v] = d, a
				g.heap.push(heapItem{d, v})
			}
		}
	}
	reached, dd := settled[dst], dist[dst]
	for _, v := range g.touched {
		if settled[v] {
			pi[v] += dist[v] - dd
		}
		dist[v], settled[v] = math.Inf(1), false
	}
	return reached
}

// augment pushes up to limit along the path prev records into dst and
// returns the amount pushed.
func (g *flowGraph) augment(src, dst int, limit float64) float64 {
	for v := dst; v != src; v = int(g.arcs[g.prev[v]^1].to) {
		limit = math.Min(limit, g.arcs[g.prev[v]].res)
	}
	for v := dst; v != src; v = int(g.arcs[g.prev[v]^1].to) {
		g.arcs[g.prev[v]].res -= limit
		g.arcs[g.prev[v]^1].res += limit
	}
	return limit
}

type heapItem struct {
	d float64
	v int32
}

// distHeap is a binary min-heap on d; Dijkstra skips stale entries.
type distHeap []heapItem

func (h *distHeap) push(it heapItem) {
	s := append(*h, it)
	for i := len(s) - 1; i > 0 && s[(i-1)/2].d > s[i].d; i = (i - 1) / 2 {
		s[(i-1)/2], s[i] = s[i], s[(i-1)/2]
	}
	*h = s
}

func (h *distHeap) pop() heapItem {
	s := *h
	top, n := s[0], len(s)-1
	s[0], s = s[n], s[:n]
	for i, c := 0, 1; c < n; i, c = c, 2*c+1 {
		if c+1 < n && s[c+1].d < s[c].d {
			c++
		}
		if s[i].d <= s[c].d {
			break
		}
		s[i], s[c] = s[c], s[i]
	}
	*h = s
	return top
}
