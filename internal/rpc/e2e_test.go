package rpc

import (
	"context"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/rpc/wire"
)

// TestDaemonLifecycleE2E is the full network lifecycle under -race:
// a daemon on a loopback port driven by concurrent clients while the
// model hot-swaps mid-flight via the registry, then a graceful drain.
// It asserts the service's core invariants:
//
//   - zero dropped or duplicated decisions: every submitted job gets
//     exactly one decision, echoing its ID in order;
//   - hot swap is live: decisions carry the new version after the
//     publish, and no request fails across the swap;
//   - clean teardown: goroutines return to baseline and the registry
//     holds no subscriptions after Shutdown.
func TestDaemonLifecycleE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second network e2e; runs in the rpc-e2e CI job")
	}
	fx := testFixture(t)
	reg := fx.newRegistry(t)
	checkGoroutines := leakcheck.Goroutines(t, "daemon lifecycle")

	d, err := NewDaemon(reg, "w", fx.cm, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	const (
		submitters = 6
		chunk      = 32
		rounds     = 12 // chunks per submitter
	)
	var (
		wg        sync.WaitGroup
		decisions atomic.Int64
		sawV2     atomic.Int64
		errCh     = make(chan error, submitters)
	)
	// The swap lands while submitters are mid-stream: half the rounds
	// run before it, half after.
	swapGate := make(chan struct{})
	for s := 0; s < submitters; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newTestClient(t, d)
			for r := 0; r < rounds; r++ {
				if r == rounds/2 {
					<-swapGate
				}
				lo := (s*rounds + r) * chunk % (len(fx.jobs) - chunk)
				jobs := fx.jobs[lo : lo+chunk]
				decs, err := c.Place(context.Background(), jobs)
				if err != nil {
					errCh <- err
					return
				}
				for i, dec := range decs {
					if dec.JobID != jobs[i].ID {
						t.Errorf("submitter %d: decision %d echoes %q, want %q", s, i, dec.JobID, jobs[i].ID)
					}
					if dec.ModelVersion == 2 {
						sawV2.Add(1)
					}
				}
				decisions.Add(int64(len(decs)))
			}
		}()
	}

	// Hot-swap mid-flight: republish the same model as version 2, then
	// release the second half of every submitter's stream.
	if _, err := reg.Publish("w", fx.model, 1); err != nil {
		t.Fatal(err)
	}
	close(swapGate)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	wantDecisions := int64(submitters * rounds * chunk)
	if got := decisions.Load(); got != wantDecisions {
		t.Errorf("decisions returned: %d, want %d (dropped or duplicated)", got, wantDecisions)
	}
	// The serving core must have processed exactly the jobs sent — a
	// duplicate would overshoot, a drop undershoot.
	if got := d.ServeStats().Submitted; got != wantDecisions {
		t.Errorf("serving core submitted %d, want %d", got, wantDecisions)
	}
	if sawV2.Load() == 0 {
		t.Error("no decision carried model version 2 after the mid-flight publish")
	}
	if got := d.ModelVersion(); got != 2 {
		t.Errorf("daemon serving v%d after swap, want v2", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if subs := reg.Subscribers(); subs != 0 {
		t.Errorf("%d registry subscriptions still active after shutdown", subs)
	}

	// Workers and the HTTP server park asynchronously.
	checkGoroutines()

	// A drained daemon must refuse work, not hang or panic.
	c, err := NewClient(DefaultClientConfig(d.BaseURL()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.PlaceOne(context.Background(), fx.jobs[0]); err == nil {
		t.Error("place after shutdown succeeded, want connection error")
	}
}

// TestShutdownDrainsInFlight checks the drain ordering: a request
// accepted before Shutdown gets its decisions even though the serving
// core is torn down right behind it. The place is held in admission
// (its one slot taken, a queue deadline longer than the test) until
// Shutdown has closed the listener, so it is in flight while the drain
// runs; Kill in its place would sever the connection and fail here.
func TestShutdownDrainsInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("network drain e2e; runs in the rpc-e2e CI job")
	}
	fx := testFixture(t)
	cfg := testConfig()
	cfg.MaxInFlightPlace = 1
	cfg.QueueDeadline = time.Minute
	d, err := NewDaemon(fx.newRegistry(t), "w", fx.cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	handler := d.http.Handler
	d.http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == wire.PathPlace {
			select {
			case entered <- struct{}{}:
			default:
			}
		}
		handler.ServeHTTP(w, r)
	})
	if err := d.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if !d.place.acquire(context.Background()) {
		t.Fatal("could not take the place slot")
	}
	c, err := NewClient(DefaultClientConfig(d.BaseURL()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type placed struct {
		decisions []wire.Decision
		err       error
	}
	done := make(chan placed, 1)
	go func() {
		decisions, err := c.Place(context.Background(), fx.jobs[:4])
		done <- placed{decisions, err}
	}()
	<-entered // the place is in its handler, waiting for the slot
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- d.Shutdown(ctx) }()
	// Shutdown has begun once the listener refuses new connections.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		conn, err := net.Dial("tcp", d.Addr())
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("the listener still accepts 5 s after Shutdown began")
		}
	}
	select {
	case p := <-done:
		t.Fatalf("the place returned before its slot was released: %v", p.err)
	default:
	}
	d.place.release()
	if p := <-done; p.err != nil || len(p.decisions) != 4 {
		t.Errorf("in-flight place during drain: %d decisions, %v; want 4 decisions", len(p.decisions), p.err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
