package dataflow

import (
	"container/heap"

	"repro/internal/dfs"
)

// deleteQueue holds one execution's retained intermediate files until
// their virtual due times, earliest first. While they wait they still
// occupy SSD space, so later, overlapping executions see it taken.
type deleteQueue []pendingDelete

type pendingDelete struct {
	at     float64
	handle *dfs.FileHandle
}

func (q deleteQueue) Len() int            { return len(q) }
func (q deleteQueue) Less(i, j int) bool  { return q[i].at < q[j].at }
func (q deleteQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *deleteQueue) Push(x interface{}) { *q = append(*q, x.(pendingDelete)) }
func (q *deleteQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// schedule queues a deletion at the given virtual time.
func (q *deleteQueue) schedule(at float64, h *dfs.FileHandle) {
	heap.Push(q, pendingDelete{at: at, handle: h})
}

// apply deletes every file whose due time is <= now.
func (q *deleteQueue) apply(now float64) error {
	for len(*q) > 0 && (*q)[0].at <= now {
		p := heap.Pop(q).(pendingDelete)
		if err := p.handle.Delete(); err != nil {
			return err
		}
	}
	return nil
}
