//go:build !race

package serve

import "testing"

// TestSubmitEncodedSteadyStateAllocs is the fan-out's allocation
// budget: once the call pool and the workers' scratch are warm, a
// pre-binned call costs a small constant that does not depend on how
// many rows it carries. (sync.Pool drops items at random under the race
// detector, hence the build tag.)
func TestSubmitEncodedSteadyStateAllocs(t *testing.T) {
	srv, fx, _ := newTestServer(t, testConfig())
	perCall := func(rows int) float64 {
		b := encodeBatch(srv, fx.jobs[:rows])
		out := make([]Decision, rows)
		call := func() {
			if _, err := b.submit(srv, out); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			call()
		}
		return testing.AllocsPerRun(200, call)
	}
	small, large := perCall(8), perCall(64)
	t.Logf("allocations per call: %.0f at 8 rows, %.0f at 64 rows", small, large)
	if small > 2 || large > small {
		t.Errorf("allocations per call: %.0f at 8 rows, %.0f at 64 rows; want at most 2 and no growth with rows", small, large)
	}
}

// TestSubmitSteadyStateAllocs: a warm single-job Submit allocates
// nothing, since its one-job slices live in the pooled call.
func TestSubmitSteadyStateAllocs(t *testing.T) {
	srv, fx, _ := newTestServer(t, testConfig())
	call := func() {
		if _, err := srv.Submit(fx.jobs[0]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		call()
	}
	if n := testing.AllocsPerRun(200, call); n != 0 {
		t.Errorf("Submit: %.1f allocations per warm call, want 0", n)
	}
}
