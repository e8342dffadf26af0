// Package leakcheck is the goroutine-leak check the tests share, a
// hand-rolled stand-in for goleak (the module has no dependencies).
// Only _test.go files import it, so no binary links it.
package leakcheck

import (
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// Goroutines reads the goroutine count as a baseline and returns the
// check that fails t unless the count falls back to the baseline or
// below within 5 s. Shard workers, stream sessions, connection loops and
// training crews signal that they are done a moment before they exit,
// so neither count is read at one instant: the baseline is read once
// the goroutines that earlier work left exiting are gone, which can
// only lower it, and the check polls. A failed check names what and
// reports both counts with every goroutine's stack.
func Goroutines(t testing.TB, what string) (check func()) {
	count := func() int {
		runtime.GC()
		return runtime.NumGoroutine()
	}
	before := count()
	for settle := time.Now().Add(time.Second); time.Now().Before(settle); {
		time.Sleep(10 * time.Millisecond)
		n := count()
		if n >= before {
			break
		}
		before = n
	}
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			after := count()
			if after <= before {
				return
			}
			if time.Now().After(deadline) {
				var stacks strings.Builder
				_ = pprof.Lookup("goroutine").WriteTo(&stacks, 1)
				t.Errorf("%s: %d goroutines before, %d after\n%s", what, before, after, &stacks)
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}
