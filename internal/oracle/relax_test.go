package oracle

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/trace"
)

// certifyRelax checks relax's answer on one instance under a constant
// capacity without trusting the solver: y fits every slot, and its
// value equals the Lagrangian bound at its own prices, so it is optimal.
// The same LP over the clique slots alone must reach the same value. It
// returns the relaxation's value.
func certifyRelax(t testing.TB, cands []candidate, capacity float64) float64 {
	t.Helper()
	lo, hi, slots := slotRanges(cands)
	caps := make([]float64, slots)
	for i := range caps {
		caps[i] = capacity
	}
	y, prices := relax(cands, lo, hi, caps)

	load := make([]float64, slots)
	prefix := make([]float64, slots+1) // prefix[t] = Σ_{u<t} prices[u]
	for u, p := range prices {
		prefix[u+1] = prefix[u] + p
	}
	flow, dual := 0.0, capacity*prefix[slots]
	for j, c := range cands {
		s := c.job.SizeBytes
		if y[j] < 0 || y[j] > s {
			t.Fatalf("candidate %d: y = %g outside [0, %g]", j, y[j], s)
		}
		for u := lo[j]; u < hi[j]; u++ {
			load[u] += y[j]
		}
		flow += c.value * y[j] / s
		dual += math.Max(0, c.value-s*(prefix[hi[j]]-prefix[lo[j]]))
	}
	for u, l := range load {
		if l > caps[u]*(1+1e-9) {
			t.Fatalf("slot %d: load %g over capacity %g", u, l, caps[u])
		}
	}
	if math.Abs(dual-flow) > 1e-9*flow {
		t.Fatalf("relaxation %.17g != Lagrangian bound %.17g at its prices", flow, dual)
	}
	clo, chi, cliques := cliqueRanges(cands)
	ccaps := make([]float64, cliques)
	for i := range ccaps {
		ccaps[i] = capacity
	}
	cy, _ := relax(cands, clo, chi, ccaps)
	clique := 0.0
	for j, c := range cands {
		clique += c.value * cy[j] / c.job.SizeBytes
	}
	if math.Abs(clique-flow) > 1e-9*flow {
		t.Fatalf("relaxation over %d clique slots %.17g != over all %d slots %.17g", cliques, clique, slots, flow)
	}
	return flow
}

// TestRelaxCertified certifies relax on seeded small instances and on a
// generated trace, where Solve's fractional answer must be that
// certified relaxation.
func TestRelaxCertified(t *testing.T) {
	cm := cost.Default()
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 300; trial++ {
		jobs := randomInstance(rng, 1+rng.Intn(48))
		capacity := 300 + rng.Float64()*3000
		for _, obj := range []Objective{TCO, TCIO} {
			if cands := candidates(jobs, capacity, cm, obj); len(cands) > 0 {
				certifyRelax(t, cands, capacity)
			}
		}
	}

	cfg := trace.DefaultGeneratorConfig("cert", 3)
	cfg.DurationSec = 6 * 3600
	tr := trace.NewGenerator(cfg).Generate()
	for _, quota := range []float64{0.005, 0.05, 0.5} {
		capacity := quota * tr.PeakSSDUsage()
		for _, obj := range []Objective{TCO, TCIO} {
			flow := certifyRelax(t, candidates(tr.Jobs, capacity, cm, obj), capacity)
			r, err := Solve(tr.Jobs, capacity, cm, Config{Objective: obj, Fractional: true})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(r.Value-flow) > 1e-9*flow || r.UpperBound != r.Value {
				t.Errorf("quota %g %v: fractional Solve %.17g (bound %.17g), certified relaxation %.17g",
					quota, obj, r.Value, r.UpperBound, flow)
			}
			t.Logf("%d jobs, quota %g, %v: relaxation %.3g", len(tr.Jobs), quota, obj, flow)
		}
	}
}

// FuzzRelax derives an instance from arbitrary bytes and certifies the
// relaxation on it. Byte 0 sets the job count, byte 1 the capacity and
// the objective; each job then reads four bytes (arrival, lifetime,
// size, and whether it is hot), cycling when data runs short.
func FuzzRelax(f *testing.F) {
	f.Add([]byte{3, 10, 0, 50, 20, 1, 20, 50, 20, 1, 40, 50, 20, 1})
	f.Add([]byte{12, 3, 0, 9, 255, 1, 0, 9, 255, 1, 9, 9, 1, 1, 9, 9, 1, 2})
	f.Add([]byte{47, 200, 7, 3, 1, 0, 1, 200, 13, 1, 90, 2, 40, 3})
	cm := cost.Default()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		n := int(data[0])%48 + 1
		capacity := 50 + 20*float64(data[1])
		obj := Objective(data[1] % 2)
		body := data[2:]
		jobs := make([]*trace.Job, n)
		for i := range jobs {
			b := func(k int) float64 { return float64(body[(4*i+k)%len(body)]) }
			arrival, life, size := 8*b(0), 1+4*b(1), 1+8*b(2)
			if int(b(3))%4 == 0 {
				jobs[i] = coldJob(idFor(i), arrival, life, size)
			} else {
				jobs[i] = hotJob(idFor(i), arrival, life, size)
			}
		}
		if cands := candidates(jobs, capacity, cm, obj); len(cands) > 0 {
			certifyRelax(t, cands, capacity)
		}
	})
}
