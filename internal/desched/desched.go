// Package desched is a deterministic discrete-event process scheduler:
// goroutines cooperate on a shared virtual clock, exactly one process
// runs at a time, and control transfers in (time, spawn-order) order.
// The prototype deployment uses it to interleave hundreds of pipeline
// executions so that their intermediate files contend for SSD space at
// the correct virtual instants — the condition that produces spillover
// in a test deployment.
package desched

import (
	"container/heap"
	"fmt"
)

// Proc is the handle a scheduled process uses to read and advance the
// virtual clock. It is only valid inside the process's function.
type Proc struct {
	s      *Scheduler
	id     int
	resume chan struct{}
}

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.s.now }

// WaitUntil blocks the process until the virtual clock reaches t.
// Waiting for the past (t <= now) yields the processor but does not
// advance time.
func (p *Proc) WaitUntil(t float64) {
	if t < p.s.now {
		t = p.s.now
	}
	p.s.park(p, t)
	p.s.yield <- struct{}{}
	<-p.resume
}

// entry is a parked process (or a not-yet-started one). Same-time
// entries resolve in insertion order (FIFO), so a process that yields
// without advancing time goes behind already-queued peers.
type entry struct {
	at    float64
	seq   int
	start func(*Proc) // non-nil for first activation
	proc  *Proc
}

type entryHeap []*entry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h entryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x interface{}) { *h = append(*h, x.(*entry)) }
func (h *entryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Scheduler coordinates the processes. Create with New, add processes
// with Spawn, then call Run.
type Scheduler struct {
	now     float64
	pending entryHeap
	yield   chan struct{}
	nextSeq int
	running bool
}

// New creates an empty scheduler at time 0.
func New() *Scheduler {
	return &Scheduler{yield: make(chan struct{})}
}

// Spawn registers a process to start at virtual time `at`. Must be
// called before Run (processes spawning processes is not supported).
func (s *Scheduler) Spawn(at float64, fn func(*Proc)) error {
	if s.running {
		return fmt.Errorf("desched: Spawn after Run")
	}
	if fn == nil {
		return fmt.Errorf("desched: nil process function")
	}
	s.nextSeq++
	heap.Push(&s.pending, &entry{at: at, seq: s.nextSeq, start: fn})
	return nil
}

func (s *Scheduler) park(p *Proc, at float64) {
	s.nextSeq++
	heap.Push(&s.pending, &entry{at: at, seq: s.nextSeq, proc: p})
}

// Run drives the clock until every process has finished. Exactly one
// process executes at any moment; same-time wakeups resolve in spawn
// order, so execution is fully deterministic.
func (s *Scheduler) Run() {
	s.running = true
	for s.pending.Len() > 0 {
		e := heap.Pop(&s.pending).(*entry)
		if e.at > s.now {
			s.now = e.at
		}
		if e.start != nil {
			p := &Proc{s: s, id: e.seq, resume: make(chan struct{})}
			fn := e.start
			go func() {
				fn(p)
				s.yield <- struct{}{}
			}()
		} else {
			e.proc.resume <- struct{}{}
		}
		<-s.yield
	}
	s.running = false
}
