package registry

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/trace"
)

func tinyModel(t *testing.T, seed int64) *core.CategoryModel {
	t.Helper()
	cfg := trace.DefaultGeneratorConfig("R", seed)
	cfg.DurationSec = 6 * 3600
	cfg.NumUsers = 3
	jobs := trace.NewGenerator(cfg).Generate().Jobs
	opts := core.DefaultTrainOptions()
	opts.NumCategories = 4
	opts.GBDT.NumRounds = 2
	m, err := core.TrainCategoryModel(jobs, cost.Default(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPublishResolveRollback(t *testing.T) {
	r := New()
	m1 := tinyModel(t, 1)
	m2 := tinyModel(t, 2)

	if _, _, err := r.Resolve("pipex"); err == nil {
		t.Error("resolve before publish should fail")
	}
	v1, err := r.Publish("pipex", m1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Number != 1 {
		t.Errorf("first version = %d", v1.Number)
	}
	v2, err := r.Publish("pipex", m2, 200)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Number != 2 {
		t.Errorf("second version = %d", v2.Number)
	}
	got, v, err := r.Resolve("pipex")
	if err != nil {
		t.Fatal(err)
	}
	if v.Number != 2 || got != m2 {
		t.Error("resolve did not return the newest version")
	}
	// Bad release: roll back.
	if err := r.Rollback("pipex", 1); err != nil {
		t.Fatal(err)
	}
	got, v, err = r.Resolve("pipex")
	if err != nil {
		t.Fatal(err)
	}
	if v.Number != 1 || got != m1 {
		t.Error("rollback did not activate version 1")
	}
	if err := r.Rollback("pipex", 9); err == nil {
		t.Error("rollback to missing version accepted")
	}
	if err := r.Rollback("ghost", 1); err == nil {
		t.Error("rollback of unknown workload accepted")
	}
}

func TestResolveVersion(t *testing.T) {
	r := New()
	m1 := tinyModel(t, 1)
	m2 := tinyModel(t, 2)
	if _, err := r.Publish("w", m1, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish("w", m2, 200); err != nil {
		t.Fatal(err)
	}
	// Roll back so the active version differs from the newest: both must
	// stay addressable by number.
	if err := r.Rollback("w", 1); err != nil {
		t.Fatal(err)
	}
	got, v, err := r.ResolveVersion("w", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != m2 || v.Number != 2 || v.TrainedAtSec != 200 {
		t.Errorf("ResolveVersion(2) = %+v (model match %v), want number 2 trained at 200", v, got == m2)
	}
	if got, v, err := r.ResolveVersion("w", 1); err != nil || got != m1 || v.Number != 1 {
		t.Errorf("ResolveVersion(1) = %+v, %v", v, err)
	}
	for _, n := range []int{0, 3, -1} {
		if _, _, err := r.ResolveVersion("w", n); err == nil {
			t.Errorf("ResolveVersion(%d) accepted", n)
		}
	}
	if _, _, err := r.ResolveVersion("ghost", 1); err == nil {
		t.Error("ResolveVersion of unknown workload accepted")
	}
}

func TestPublishValidation(t *testing.T) {
	r := New()
	if _, err := r.Publish("", tinyModel(t, 3), 0); err == nil {
		t.Error("empty workload accepted")
	}
	if _, err := r.Publish("w", nil, 0); err == nil {
		t.Error("nil model accepted")
	}
}

func TestWorkloadsAndVersions(t *testing.T) {
	r := New()
	m := tinyModel(t, 4)
	r.Publish("b", m, 1)
	r.Publish("a", m, 2)
	r.Publish("a", m, 3)
	ws := r.Workloads()
	if len(ws) != 2 || ws[0] != "a" || ws[1] != "b" {
		t.Errorf("Workloads = %v", ws)
	}
	vs := r.Versions("a")
	if len(vs) != 2 || vs[0].Number != 1 || vs[1].Number != 2 {
		t.Errorf("Versions = %v", vs)
	}
	if len(r.Versions("ghost")) != 0 {
		t.Error("unknown workload has versions")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := New()
	m := tinyModel(t, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("w%d", w%4)
			for i := 0; i < 20; i++ {
				if _, err := r.Publish(name, m, float64(i)); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := r.Resolve(name); err != nil {
					t.Error(err)
					return
				}
				r.Workloads()
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, w := range r.Workloads() {
		total += len(r.Versions(w))
	}
	if total != 160 {
		t.Errorf("total versions = %d, want 160", total)
	}
}

func TestSubscribeNotifiesOnActivation(t *testing.T) {
	r := New()
	m := tinyModel(t, 9)

	var mu sync.Mutex
	var got []Version
	cancel := r.Subscribe("w", func(v Version) {
		mu.Lock()
		got = append(got, v)
		mu.Unlock()
	})

	// Other workloads must not notify this subscription.
	if _, err := r.Publish("other", m, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish("w", m, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish("w", m, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Rollback("w", 1); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 {
		t.Fatalf("got %d notifications, want 3 (%v)", len(got), got)
	}
	if got[0].Number != 1 || got[1].Number != 2 || got[2].Number != 1 {
		t.Fatalf("bad notification sequence: %v", got)
	}
	for _, v := range got {
		if v.Workload != "w" {
			t.Fatalf("notification for wrong workload: %v", v)
		}
	}

	cancel()
	if _, err := r.Publish("w", m, 3); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("cancelled subscription still fired: %v", got)
	}
}

// TestPublishWhileSubscribedOrdering pins the delivery contract the
// serving layer's hot-swap path depends on: under concurrent publishes,
// every activation is notified exactly once, callbacks may arrive out
// of order (which is why subscribers re-Resolve), and after the burst
// the registry resolves to the highest version.
func TestPublishWhileSubscribedOrdering(t *testing.T) {
	r := New()
	m := tinyModel(t, 11)

	var mu sync.Mutex
	seen := map[int]int{}
	r.Subscribe("w", func(v Version) {
		mu.Lock()
		seen[v.Number]++
		mu.Unlock()
	})

	const publishers, perPublisher = 4, 10
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				if _, err := r.Publish("w", m, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	total := publishers * perPublisher
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != total {
		t.Fatalf("notified %d distinct versions, want %d", len(seen), total)
	}
	for n := 1; n <= total; n++ {
		if seen[n] != 1 {
			t.Errorf("version %d notified %d times, want exactly once", n, seen[n])
		}
	}
	_, v, err := r.Resolve("w")
	if err != nil {
		t.Fatal(err)
	}
	if v.Number != total {
		t.Errorf("resolved v%d after burst, want v%d", v.Number, total)
	}
}

// TestRollbackAfterFailedGate exercises the release path the online
// learner's gate shares with manual operations: a candidate that made
// it out (v2) turns out to regress, the workload rolls back to v1, and
// the next (fixed) release gets a fresh version number and activates.
func TestRollbackAfterFailedGate(t *testing.T) {
	r := New()
	good := tinyModel(t, 12)
	bad := tinyModel(t, 13)

	var mu sync.Mutex
	var activations []int
	r.Subscribe("w", func(v Version) {
		mu.Lock()
		activations = append(activations, v.Number)
		mu.Unlock()
	})

	if _, err := r.Publish("w", good, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish("w", bad, 20); err != nil {
		t.Fatal(err)
	}
	// Post-release gate verdict: regression — roll back.
	if err := r.Rollback("w", 1); err != nil {
		t.Fatal(err)
	}
	model, v, err := r.Resolve("w")
	if err != nil {
		t.Fatal(err)
	}
	if v.Number != 1 || model != good {
		t.Fatalf("after rollback resolving v%d", v.Number)
	}
	// The failed version stays in history (audit trail), and the next
	// release does not reuse its number.
	if vs := r.Versions("w"); len(vs) != 2 {
		t.Fatalf("history lost versions: %v", vs)
	}
	v3, err := r.Publish("w", good, 30)
	if err != nil {
		t.Fatal(err)
	}
	if v3.Number != 3 {
		t.Errorf("post-rollback publish got v%d, want v3", v3.Number)
	}
	if _, v, _ := r.Resolve("w"); v.Number != 3 {
		t.Errorf("resolving v%d after fixed release, want v3", v.Number)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []int{1, 2, 1, 3}
	if len(activations) != len(want) {
		t.Fatalf("activations = %v, want %v", activations, want)
	}
	for i := range want {
		if activations[i] != want[i] {
			t.Fatalf("activations = %v, want %v", activations, want)
		}
	}
}

// TestDoublePublishIdenticalModel: republishing the same model (the
// online loop does this when a retrain converges to the live model's
// behaviour) still allocates a fresh version, notifies subscribers and
// resolves to the same underlying model.
func TestDoublePublishIdenticalModel(t *testing.T) {
	r := New()
	m := tinyModel(t, 14)

	notifications := 0
	r.Subscribe("w", func(Version) { notifications++ })

	v1, err := r.Publish("w", m, 100)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r.Publish("w", m, 200)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Number == v2.Number {
		t.Fatalf("identical model reused version %d", v1.Number)
	}
	if v2.TrainedAtSec != 200 {
		t.Errorf("second publish kept stale TrainedAtSec %g", v2.TrainedAtSec)
	}
	got, v, err := r.Resolve("w")
	if err != nil {
		t.Fatal(err)
	}
	if got != m || v.Number != 2 {
		t.Errorf("resolve after double publish: v%d", v.Number)
	}
	if notifications != 2 {
		t.Errorf("got %d notifications, want 2", notifications)
	}
	// Rolling back across identical content still works by number.
	if err := r.Rollback("w", 1); err != nil {
		t.Fatal(err)
	}
	if _, v, _ := r.Resolve("w"); v.Number != 1 {
		t.Errorf("rollback landed on v%d", v.Number)
	}
}

func TestSubscribeCallbackMayUseRegistry(t *testing.T) {
	r := New()
	m := tinyModel(t, 10)
	resolved := 0
	r.Subscribe("w", func(Version) {
		if _, _, err := r.Resolve("w"); err != nil {
			t.Errorf("resolve inside callback: %v", err)
		}
		resolved++
	})
	if _, err := r.Publish("w", m, 0); err != nil {
		t.Fatal(err)
	}
	if resolved != 1 {
		t.Fatalf("callback ran %d times, want 1", resolved)
	}
}

// TestUnsubscribeCleansUp: cancelling subscriptions must release all
// internal state — per-workload maps included — so a fleet churning
// through cluster/<id> workloads cannot accumulate retired entries.
func TestUnsubscribeCleansUp(t *testing.T) {
	r := New()
	var cancels []func()
	for i := 0; i < 5; i++ {
		w := fmt.Sprintf("cluster/C%d", i%3)
		cancels = append(cancels, r.Subscribe(w, func(Version) {}))
	}
	if got := r.Subscribers(); got != 5 {
		t.Fatalf("Subscribers() = %d, want 5", got)
	}
	for _, c := range cancels {
		c()
		c() // double-cancel must be a no-op
	}
	if got := r.Subscribers(); got != 0 {
		t.Fatalf("Subscribers() = %d after cancelling all, want 0", got)
	}
	r.mu.RLock()
	n := len(r.subs)
	r.mu.RUnlock()
	if n != 0 {
		t.Fatalf("%d empty workload maps left after unsubscribe", n)
	}
	// The registry stays fully usable: a fresh subscription on a
	// previously retired workload is delivered.
	fired := 0
	cancel := r.Subscribe("cluster/C0", func(Version) { fired++ })
	defer cancel()
	if _, err := r.Publish("cluster/C0", tinyModel(t, 11), 0); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("callback fired %d times after resubscribe, want 1", fired)
	}
}
