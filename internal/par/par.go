// Package par runs independent indexed tasks on a bounded worker pool:
// the fan-out under the fleet, experiments and scenario runners.
package par

import (
	"runtime"
	"sync"
)

// Each runs fn(i) for every i in [0, n) on at most workers goroutines
// (0 means GOMAXPROCS) and returns the first error once every index has
// run. With one worker or fewer it runs in index order on the caller's
// goroutine. Callers whose fn writes only to its own index get the same
// outputs at any worker count.
func Each(n, workers int, fn func(i int) error) error {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || n <= 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	work := make(chan int)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	return firstErr
}
