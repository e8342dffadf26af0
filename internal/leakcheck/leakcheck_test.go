package leakcheck

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// recorder keeps what a check reports instead of failing the test.
type recorder struct {
	testing.TB
	errors []string
}

func (r *recorder) Errorf(format string, args ...any) {
	r.errors = append(r.errors, fmt.Sprintf(format, args...))
}

// TestGoroutines: a goroutine that exits a moment after the work it
// belongs to has returned passes the check, and one that never exits
// fails it with its stack in the report.
func TestGoroutines(t *testing.T) {
	check := Goroutines(t, "a late exit")
	done := make(chan struct{})
	go func() {
		<-done
		time.Sleep(10 * time.Millisecond)
	}()
	close(done)
	check()

	rec := &recorder{TB: t}
	check = Goroutines(rec, "a leak")
	stop := make(chan struct{})
	go leak(stop)
	check()
	close(stop)
	if len(rec.errors) != 1 {
		t.Fatalf("a goroutine that never exited: %d failures reported, want 1", len(rec.errors))
	}
	if !strings.Contains(rec.errors[0], "leakcheck.leak") {
		t.Errorf("the report holds no stack of the leaked goroutine:\n%s", rec.errors[0])
	}
}

func leak(stop chan struct{}) { <-stop }
