package oracle

import "math"

// relax solves the LP relaxation of the oracle problem exactly: maximize
// Σ (v_j/s_j)·y_j subject to Σ_{j live in slot t} y_j ≤ caps[t] and
// 0 ≤ y_j ≤ s_j, where y_j is the number of bytes of candidate j on SSD.
// Every job occupies one contiguous run of slots, so the constraint
// matrix is an interval matrix and the LP is a min-cost circulation on
// the slot boundaries of ti: one arc t→t+1 per slot (capacity caps[t],
// cost 0) and one arc hi→lo per candidate (capacity s_j, cost −v_j/s_j).
//
// Every candidate starts fully placed, which leaves an excess at each
// arrival boundary and a deficit at each end boundary. Successive
// shortest paths send each excess back, from the excess nodes in time
// order, along Dijkstra paths on reduced costs that stop at the first
// deficit reached. Whatever flow a path pushes through a job arc's
// reverse unplaces that many of the job's bytes.
//
// prices[t] ≥ 0 is the dual of slot t's capacity row. At these prices
// the Lagrangian bound Σ_t caps[t]·prices[t] + Σ_j max(0, v_j − s_j·Σ_{t∈I_j} prices[t])
// equals the relaxation's value, so anyone can check the bound in
// O(n + T) without trusting the solver.
func relax(cands []candidate, ti *timeIndex, caps []float64) (y, prices []float64) {
	nn := len(ti.times)
	g := flowGraph{arcs: make([]flowArc, 0, 2*(len(caps)+len(cands))), adj: make([][]int32, nn)}
	excess := make([]float64, nn)
	for t, c := range caps {
		g.add(t, t+1, c, 0, 0)
	}
	for _, c := range cands {
		lo, hi := ti.slotRange(c.job)
		s := c.job.SizeBytes
		g.add(hi, lo, 0, s, -c.value/s)
		excess[lo] += s
		excess[hi] -= s
	}

	pi, dist := make([]float64, nn), make([]float64, nn)
	prev, settled := make([]int32, nn), make([]bool, nn)
	var h distHeap
	for src := range excess {
		for excess[src] > 0 {
			for v := range dist {
				dist[v], prev[v], settled[v] = math.Inf(1), -1, false
			}
			dist[src] = 0
			h = append(h[:0], heapItem{0, int32(src)})
			target := -1
			for len(h) > 0 {
				u := h.pop().v
				if settled[u] {
					continue
				}
				settled[u] = true
				if excess[u] < 0 {
					target = int(u)
					break
				}
				for _, a := range g.adj[u] {
					arc := &g.arcs[a]
					v := arc.to
					if arc.res <= 0 || settled[v] {
						continue
					}
					d := dist[u]
					if rc := arc.cost + pi[u] - pi[v]; rc > 0 {
						d += rc // rc < 0 is float round-off of a zero
					}
					if d < dist[v] {
						dist[v], prev[v] = d, a
						h.push(heapItem{d, v})
					}
				}
			}
			if target < 0 {
				break // float residue of netted sizes: nothing left to meet it
			}
			for v, ok := range settled {
				if ok {
					pi[v] += dist[v] - dist[target]
				}
			}
			push := math.Min(excess[src], -excess[target])
			for v := target; v != src; v = int(g.arcs[prev[v]^1].to) {
				push = math.Min(push, g.arcs[prev[v]].res)
			}
			for v := target; v != src; v = int(g.arcs[prev[v]^1].to) {
				g.arcs[prev[v]].res -= push
				g.arcs[prev[v]^1].res += push
			}
			excess[src] -= push
			excess[target] += push
		}
	}

	y = make([]float64, len(cands))
	for j, c := range cands {
		// Candidate j's arc pair follows the slots' pairs; the reverse
		// lo→hi holds the bytes still placed, up to float round-off.
		y[j] = math.Min(c.job.SizeBytes, g.arcs[2*(len(caps)+j)+1].res)
	}
	prices = make([]float64, len(caps))
	for t := range prices {
		prices[t] = math.Max(0, pi[t+1]-pi[t])
	}
	return y, prices
}

// flowGraph is a residual network. Arcs come in pairs: arc a's reverse
// is a^1, with the opposite cost.
type flowGraph struct {
	arcs []flowArc
	adj  [][]int32 // arc ids by tail node
}

type flowArc struct {
	to        int32
	res, cost float64
}

// add appends the pair u→v (residual res) and v→u (residual back).
func (g *flowGraph) add(u, v int, res, back, cost float64) {
	a := int32(len(g.arcs))
	g.arcs = append(g.arcs, flowArc{int32(v), res, cost}, flowArc{int32(u), back, -cost})
	g.adj[u] = append(g.adj[u], a)
	g.adj[v] = append(g.adj[v], a+1)
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
