package desched

import (
	"testing"
)

func TestSingleProcessAdvancesClock(t *testing.T) {
	s := New()
	var times []float64
	err := s.Spawn(10, func(p *Proc) {
		times = append(times, p.Now())
		p.WaitUntil(50)
		times = append(times, p.Now())
		p.WaitUntil(20) // past: yields but does not rewind
		times = append(times, p.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	want := []float64{10, 50, 50}
	if len(times) != len(want) {
		t.Fatalf("times = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("times[%d] = %g, want %g", i, times[i], want[i])
		}
	}
	if s.now != 50 {
		t.Errorf("final time %g", s.now)
	}
}

func TestProcessesInterleaveInTimeOrder(t *testing.T) {
	s := New()
	var order []string
	log := func(tag string, p *Proc) {
		order = append(order, tag)
	}
	// A runs 0 -> 100 -> 200; B runs 50 -> 150; C runs 120 (one-shot).
	s.Spawn(0, func(p *Proc) {
		log("A0", p)
		p.WaitUntil(100)
		log("A100", p)
		p.WaitUntil(200)
		log("A200", p)
	})
	s.Spawn(50, func(p *Proc) {
		log("B50", p)
		p.WaitUntil(150)
		log("B150", p)
	})
	s.Spawn(120, func(p *Proc) {
		log("C120", p)
	})
	s.Run()
	want := []string{"A0", "B50", "A100", "C120", "B150", "A200"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTieBreakBySpawnOrder(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		s := New()
		var order []int
		for i := 0; i < 8; i++ {
			i := i
			s.Spawn(42, func(p *Proc) {
				order = append(order, i)
				p.WaitUntil(42) // same-time re-park
				order = append(order, 100+i)
			})
		}
		s.Run()
		for i := 0; i < 8; i++ {
			if order[i] != i {
				t.Fatalf("trial %d: first wave order %v", trial, order)
			}
		}
		for i := 0; i < 8; i++ {
			if order[8+i] != 100+i {
				t.Fatalf("trial %d: second wave order %v", trial, order)
			}
		}
	}
}

func TestSpawnValidation(t *testing.T) {
	s := New()
	if err := s.Spawn(0, nil); err == nil {
		t.Error("nil fn accepted")
	}
	s.Spawn(0, func(p *Proc) {})
	s.Run()
	if err := s.Spawn(0, func(p *Proc) {}); err != nil {
		// Spawning after Run finished is allowed again (running=false);
		// the new process runs on the next Run call.
		t.Logf("post-run spawn: %v", err)
	}
}

func TestManyProcessesSharedState(t *testing.T) {
	// One process at a time means unsynchronized shared state is safe.
	s := New()
	counter := 0
	const n = 200
	for i := 0; i < n; i++ {
		at := float64(i % 17)
		s.Spawn(at, func(p *Proc) {
			for k := 0; k < 5; k++ {
				counter++
				p.WaitUntil(p.Now() + 1)
			}
		})
	}
	s.Run()
	if counter != n*5 {
		t.Errorf("counter = %d, want %d", counter, n*5)
	}
}
