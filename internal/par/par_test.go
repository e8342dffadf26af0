package par

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// sequential reports whether Each runs on the caller's goroutine: one
// worker or fewer, where 0 means GOMAXPROCS.
func sequential(workers int) bool { return workers != 0 && workers <= 1 }

func TestEach(t *testing.T) {
	const n = 40
	for _, workers := range []int{-1, 0, 1, 3, n + 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var (
				mu    sync.Mutex
				order []int
			)
			runs := make([]atomic.Int32, n)
			err := Each(n, workers, func(i int) error {
				runs[i].Add(1)
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("index %d ran %d times, want 1", i, got)
				}
			}
			if sequential(workers) {
				for i, v := range order {
					if v != i {
						t.Fatalf("with %d workers, run %d was index %d: want index order", workers, i, v)
					}
				}
			}
		})
	}
}

func TestEachErrorAfterEveryIndex(t *testing.T) {
	const n = 40
	for _, workers := range []int{-1, 0, 1, 3, n + 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var ran atomic.Int32
			errFirst := errors.New("index 0 failed")
			err := Each(n, workers, func(i int) error {
				ran.Add(1)
				if i == 0 {
					return errFirst
				}
				if i%7 == 0 {
					return fmt.Errorf("index %d failed", i)
				}
				return nil
			})
			if got := ran.Load(); got != n {
				t.Errorf("%d of %d indices ran before Each returned", got, n)
			}
			if err == nil {
				t.Fatal("Each swallowed the errors")
			}
			if sequential(workers) && !errors.Is(err, errFirst) {
				t.Errorf("sequential Each returned %v, want the first index's error", err)
			}
		})
	}
}

func TestEachEmpty(t *testing.T) {
	for _, workers := range []int{0, 1, 3} {
		if err := Each(0, workers, func(int) error { t.Fatal("fn called for n = 0"); return nil }); err != nil {
			t.Fatal(err)
		}
	}
}
