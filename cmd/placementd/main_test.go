package main

import (
	"context"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// startRun launches run() with a cancellable context and a tiny
// synthetic model, returning the bound base URL (parsed from the
// startup banner), the cancel func and a channel with run's error.
func startRun(t *testing.T, extra ...string) (base string, cancel context.CancelFunc, done chan error, out *syncBuilder) {
	t.Helper()
	ctx, cancelFn := context.WithCancel(context.Background())
	out = &syncBuilder{}
	done = make(chan error, 1)
	args := append([]string{
		"-addr", "127.0.0.1:0", "-days", "1", "-users", "4",
		"-rounds", "3", "-categories", "4",
	}, extra...)
	go func() { done <- run(ctx, args, out) }()

	re := regexp.MustCompile(`listening on (http://[^ ]+) `)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			return m[1], cancelFn, done, out
		}
		select {
		case err := <-done:
			t.Fatalf("run exited before listening: %v\noutput:\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// syncBuilder is a strings.Builder safe for the writer/poller pair.
type syncBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestPlacementdServesAndDrains boots the daemon, hits its ops and
// placement endpoints over real HTTP, then cancels the context (the
// SIGINT path) and checks the drain summary counters flush.
func TestPlacementdServesAndDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and serves real HTTP")
	}
	base, cancel, done, out := startRun(t)
	defer cancel()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if status, body := get("/healthz"); status != http.StatusOK || body != "ok\n" {
		t.Errorf("healthz: %d %q", status, body)
	}
	if _, body := get("/v1/model"); !strings.Contains(body, `"workload":"default"`) {
		t.Errorf("model info: %s", body)
	}

	// One real placement through the wire.
	job := `{"jobs":[{"id":"j1","pipeline":"p","step":"s","arrival_sec":1,"lifetime_sec":60,"size_bytes":1000,"read_bytes":100,"write_bytes":100,"avg_read_size_bytes":10}]}`
	resp, err := http.Post(base+"/v1/place", "application/json", strings.NewReader(job))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"job_id":"j1"`) {
		t.Errorf("place: %d %s", resp.StatusCode, body)
	}
	if _, varz := get("/varz"); !strings.Contains(varz, "rpc_place_requests 1") {
		t.Errorf("varz after one placement:\n%s", varz)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after cancel")
	}
	final := out.String()
	for _, want := range []string{"draining", "rpc_place_jobs 1", "serve_submitted 1"} {
		if !strings.Contains(final, want) {
			t.Errorf("drain summary missing %q:\n%s", want, final)
		}
	}
}

// TestPlacementdOnlineFlag checks the -online learner attaches: varz
// gains the online_* counters.
func TestPlacementdOnlineFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and serves real HTTP")
	}
	base, cancel, done, _ := startRun(t, "-online")
	defer cancel()
	resp, err := http.Get(base + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "online_retrains 0") {
		t.Errorf("varz without online counters despite -online:\n%s", b)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestPlacementdRejectsBadFlags(t *testing.T) {
	ctx := context.Background()
	var buf strings.Builder
	if err := run(ctx, []string{"-bogus"}, &buf); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run(ctx, []string{"-model", "missing.json"}, &buf); err == nil {
		t.Error("unreadable model accepted")
	}
	if err := run(ctx, []string{"-addr", "999.999.999.999:1", "-days", "0.2", "-users", "2", "-rounds", "2", "-categories", "3"}, &buf); err == nil {
		t.Error("unlistenable address accepted")
	}
}
