package lp

import (
	"math"
	"testing"
)

// bealeProblem is Beale's classic cycling example: under Dantzig
// pricing with naive tie-breaking the simplex revisits bases forever on
// this degenerate problem (every RHS is 0, so the first pivots are all
// degenerate). Optimum: x = (1/25, 0, 1, 0), objective 1/20.
func bealeProblem() Problem {
	return Problem{
		C: []float64{0.75, -150, 0.02, -6},
		A: [][]float64{
			{0.25, -60, -1.0 / 25, 9},
			{0.5, -90, -1.0 / 50, 3},
			{0, 0, 1, 0},
		},
		B: []float64{0, 0, 1},
	}
}

func checkBealeOptimal(t *testing.T, s Solution) {
	t.Helper()
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if math.Abs(s.Objective-0.05) > 1e-9 {
		t.Errorf("objective = %g, want 0.05", s.Objective)
	}
	if math.Abs(s.X[0]-1.0/25) > 1e-9 || math.Abs(s.X[2]-1) > 1e-9 {
		t.Errorf("X = %v, want [0.04 0 1 0]", s.X)
	}
}

// TestSolveBealeCycling pins the Bland's-rule switchover: the public
// Solve must terminate optimally on the canonical cycling example.
func TestSolveBealeCycling(t *testing.T) {
	s, err := Solve(bealeProblem())
	if err != nil {
		t.Fatal(err)
	}
	checkBealeOptimal(t, s)
}

// TestSolveBlandOnly runs Bland's rule from the first pivot
// (blandAfter <= 0): it must terminate optimally on both the cycling
// example and a redundant-constraint degenerate problem, since Bland's
// rule provably never cycles.
func TestSolveBlandOnly(t *testing.T) {
	p := bealeProblem()
	s, err := solve(p, 200*(len(p.C)+len(p.B)+10), 0)
	if err != nil {
		t.Fatal(err)
	}
	checkBealeOptimal(t, s)

	deg := Problem{
		C: []float64{1, 1},
		A: [][]float64{{1, 1}, {1, 1}, {2, 2}, {1, 0}},
		B: []float64{1, 1, 2, 1},
	}
	s, err = solve(deg, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.Objective-1) > 1e-6 {
		t.Errorf("degenerate solution = %+v, want objective 1", s)
	}
}

// TestSolveIterationLimit forces the IterationLimit status and checks
// the truncated solution is still primal-feasible — the property that
// makes rounding an IterationLimit solution safe.
func TestSolveIterationLimit(t *testing.T) {
	p := Problem{
		C: []float64{3, 5},
		A: [][]float64{{1, 0}, {0, 2}, {3, 2}},
		B: []float64{4, 12, 18},
	}
	for _, maxIter := range []int{0, 1, 2} {
		s, err := solve(p, maxIter, 0)
		if err != nil {
			t.Fatal(err)
		}
		if s.Status != IterationLimit {
			t.Fatalf("maxIter %d: status = %v, want iteration-limit", maxIter, s.Status)
		}
		checkFeasible(t, p, s.X)
	}
	// The same budget on Beale's example: degenerate pivots burn the
	// budget without leaving the origin, and the extracted point must
	// still be feasible.
	s, err := solve(bealeProblem(), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != IterationLimit {
		t.Fatalf("status = %v, want iteration-limit", s.Status)
	}
	checkFeasible(t, bealeProblem(), s.X)
}

// TestStatusString covers the status labels counters and logs print.
func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{
		Optimal:        "optimal",
		Unbounded:      "unbounded",
		IterationLimit: "iteration-limit",
		Status(42):     "status(42)",
	} {
		if got := st.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", int(st), got, want)
		}
	}
}

func checkFeasible(t *testing.T, p Problem, x []float64) {
	t.Helper()
	for j, v := range x {
		if v < -1e-9 || math.IsNaN(v) {
			t.Fatalf("x[%d] = %g infeasible", j, v)
		}
	}
	for i, row := range p.A {
		var lhs float64
		for j := range row {
			lhs += row[j] * x[j]
		}
		if lhs > p.B[i]+1e-6*(math.Abs(p.B[i])+1) {
			t.Fatalf("constraint %d violated: %g > %g", i, lhs, p.B[i])
		}
	}
}
