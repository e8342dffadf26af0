package online

import (
	"fmt"
	"testing"

	"repro/internal/trace"
)

func job(at float64) *trace.Job {
	return &trace.Job{ID: fmt.Sprintf("j%g", at), ArrivalSec: at, LifetimeSec: 1, SizeBytes: 1}
}

func TestWindowCountEviction(t *testing.T) {
	w := newWindow(3, 0, 4)
	for i := 0; i < 5; i++ {
		evicted := w.add(job(float64(i)), i%4)
		if i < 3 && evicted != 0 {
			t.Errorf("add %d evicted %d before the cap", i, evicted)
		}
		if i >= 3 && evicted != 1 {
			t.Errorf("add %d evicted %d, want 1", i, evicted)
		}
	}
	snap := w.snapshot()
	if len(snap) != 3 {
		t.Fatalf("window holds %d, want 3", len(snap))
	}
	for i, j := range snap {
		if want := float64(i + 2); j.ArrivalSec != want {
			t.Errorf("snapshot[%d] arrival %g, want %g (oldest-first)", i, j.ArrivalSec, want)
		}
	}
}

func TestWindowTimeEviction(t *testing.T) {
	w := newWindow(100, 10, 4)
	for i := 0; i < 5; i++ {
		w.add(job(float64(i)), 0)
	}
	// A job 10s past the oldest entries expires them.
	if evicted := w.add(job(12), 1); evicted != 2 {
		t.Errorf("evicted %d, want 2 (arrivals 0 and 1 are older than 12-10)", evicted)
	}
	if w.count != 4 {
		t.Errorf("window holds %d, want 4", w.count)
	}
}

func TestWindowDistributionTracksEviction(t *testing.T) {
	w := newWindow(4, 0, 3)
	w.add(job(0), 0)
	w.add(job(1), 0)
	w.add(job(2), 1)
	w.add(job(3), 2)
	d := w.distributionInto(nil)
	if d[0] != 0.5 || d[1] != 0.25 || d[2] != 0.25 {
		t.Fatalf("distribution = %v", d)
	}
	// Overflow evicts the oldest (category 0) entry.
	w.add(job(4), 2)
	d = w.distributionInto(nil)
	if d[0] != 0.25 || d[2] != 0.5 {
		t.Fatalf("distribution after eviction = %v", d)
	}
	// Out-of-range categories are ignored by the histogram but kept in
	// the window.
	w.add(job(5), 99)
	if w.count != 4 {
		t.Fatalf("count = %d", w.count)
	}
}

func TestWindowEmptyDistribution(t *testing.T) {
	w := newWindow(4, 0, 3)
	if w.distributionInto(nil) != nil {
		t.Error("empty window should have nil distribution")
	}
}
