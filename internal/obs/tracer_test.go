package obs

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/golden"
)

// httpGet fetches a URL and returns the status code.
func httpGet(url string) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer("placementd", 4, 16)
	var sampled int
	for i := 0; i < 100; i++ {
		if b := tr.Begin(0); b != nil {
			sampled++
			b.Span("rpc.place", "", b.start, time.Millisecond)
			b.Finish()
		}
	}
	if sampled != 25 {
		t.Fatalf("sampled %d of 100 at 1-in-4, want 25", sampled)
	}
	if tr.Sampled() != 25 {
		t.Fatalf("Sampled() = %d, want 25", tr.Sampled())
	}
}

func TestTracerPropagatedAlwaysCaptured(t *testing.T) {
	// Self-sampling off: only propagated IDs are captured, and the
	// propagated ID survives into the ring verbatim.
	tr := NewTracer("placementd", 0, 8)
	if b := tr.Begin(0); b != nil {
		t.Fatal("self-sampling disabled but Begin(0) sampled")
	}
	b := tr.Begin(0xdeadbeef)
	if b == nil {
		t.Fatal("propagated trace ID was not captured")
	}
	if b.ID() != 0xdeadbeef {
		t.Fatalf("builder ID = %x, want deadbeef", b.ID())
	}
	b.Span("rpc.place.binary", "", b.start, time.Millisecond)
	b.Finish()
	traces := tr.Snapshot()
	if len(traces) != 1 || traces[0].ID != 0xdeadbeef {
		t.Fatalf("ring = %+v, want one trace with ID deadbeef", traces)
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer("n", 1, 4)
	for i := 0; i < 10; i++ {
		b := tr.Begin(uint64(i + 1))
		b.Finish()
	}
	traces := tr.Snapshot()
	if len(traces) != 4 {
		t.Fatalf("ring holds %d traces, want 4", len(traces))
	}
	// Newest first: 10, 9, 8, 7.
	for i, want := range []uint64{10, 9, 8, 7} {
		if traces[i].ID != want {
			t.Fatalf("traces[%d].ID = %d, want %d", i, traces[i].ID, want)
		}
	}
	if tr.Sampled() != 10 {
		t.Fatalf("Sampled() = %d, want 10", tr.Sampled())
	}
}

// TestUnsampledZeroAllocs is the regression test for the tentpole's
// zero-alloc contract: an unsampled request's entire interaction with
// the tracer — the Begin decision, every nil-builder span call, the
// nil Finish, and the context plumbing — allocates nothing.
func TestUnsampledZeroAllocs(t *testing.T) {
	tr := NewTracer("placementd", 1_000_000_000, 16)
	tr.tick.Store(1) // never hits the modulus within the runs below
	ctx := context.Background()
	now := time.Now()
	if allocs := testing.AllocsPerRun(1000, func() {
		b := tr.Begin(0)
		b.Span("rpc.queue_wait", "", now, time.Microsecond)
		ctx2 := WithTrace(ctx, b)
		_ = TraceID(ctx2)
		b.Finish()
	}); allocs != 0 {
		t.Fatalf("unsampled tracing path allocates %v times per request, want 0", allocs)
	}
	// Disabled tracer (nil receiver) is equally free.
	var nilTracer *Tracer
	if allocs := testing.AllocsPerRun(1000, func() {
		b := nilTracer.Begin(0)
		b.Span("rpc.queue_wait", "", now, time.Microsecond)
		b.Finish()
	}); allocs != 0 {
		t.Fatalf("nil-tracer path allocates %v times per request, want 0", allocs)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer("n", 2, 32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := tr.Begin(0)
				b.Span("stage", "", time.Now(), time.Microsecond)
				b.Finish()
			}
		}()
	}
	wg.Wait()
	if got := tr.Sampled(); got != 2000 {
		t.Fatalf("sampled %d of 4000 at 1-in-2, want 2000", got)
	}
	for _, tr := range tr.Snapshot() {
		if tr.ID == 0 {
			t.Fatal("ring contains a zero trace ID")
		}
	}
}

func TestWriteTracezGolden(t *testing.T) {
	// Fixed traces through the pure renderers: the golden pins the
	// formats without any wall-clock leakage.
	traces := []Trace{
		{
			ID: 0x0123456789abcdef, Node: "placementfront", StartUnixNs: 1_700_000_000_000_000_001,
			Spans: []Span{
				{Stage: "front.place", StartNs: 0, DurNs: 2_340_000},
				{Stage: "router.dispatch", Detail: "http://127.0.0.1:7070", StartNs: 120_000, DurNs: 2_100_000},
			},
		},
		{
			ID: 0x00000000000000ff, Node: "placementfront", StartUnixNs: 1_700_000_000_500_000_000,
			Spans: []Span{{Stage: "front.place", StartNs: 0, DurNs: 900_000}},
		},
	}
	var buf bytes.Buffer
	WriteTracez(&buf, "placementfront", 100, 256, 17, traces)
	buf.WriteString("---\n")
	if err := WriteTracezJSON(&buf, "placementfront", 100, 256, 17, traces); err != nil {
		t.Fatalf("json: %v", err)
	}
	golden.Check(t, "testdata/tracez.golden", buf.Bytes())
}

func TestServeTracez(t *testing.T) {
	tr := NewTracer("placementd", 1, 8)
	b := tr.Begin(0xabc)
	b.Span("rpc.place.binary", "", b.start, 3*time.Millisecond)
	b.Finish()

	rec := httptest.NewRecorder()
	tr.ServeTracez(rec, httptest.NewRequest("GET", "/tracez", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "0000000000000abc") {
		t.Fatalf("text tracez: code %d body %q", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	tr.ServeTracez(rec, httptest.NewRequest("GET", "/tracez?format=json", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"id": "0000000000000abc"`) {
		t.Fatalf("json tracez: code %d body %q", rec.Code, rec.Body.String())
	}
	// Nil tracer 404s instead of panicking.
	var nilTracer *Tracer
	rec = httptest.NewRecorder()
	nilTracer.ServeTracez(rec, httptest.NewRequest("GET", "/tracez", nil))
	if rec.Code != 404 {
		t.Fatalf("nil tracer tracez: code %d, want 404", rec.Code)
	}
}

func TestProcWriteTextGolden(t *testing.T) {
	p := ProcSnapshot{
		UptimeSec:      4242,
		GoVersion:      "go1.22.0",
		GOMAXPROCS:     16,
		NumGoroutine:   23,
		HeapInuseBytes: 12_582_912,
		GCPauseTotalNs: 1_234_567,
		NumGC:          42,
	}
	var buf bytes.Buffer
	WriteVars(&buf, "placementd", p)
	golden.Check(t, "testdata/proc.golden", buf.Bytes())
}

func TestCollectProc(t *testing.T) {
	p := CollectProc(time.Now().Add(-3 * time.Second))
	if p.UptimeSec < 2 || p.UptimeSec > 10 {
		t.Fatalf("uptime = %d, want ~3", p.UptimeSec)
	}
	if p.GoVersion == "" || p.GOMAXPROCS < 1 || p.HeapInuseBytes == 0 {
		t.Fatalf("implausible proc snapshot: %+v", p)
	}
}

func TestDebugServer(t *testing.T) {
	ds, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for _, path := range []string{"/debug/pprof/cmdline", "/debug/vars"} {
		resp, err := httpGet("http://" + ds.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp != 200 {
			t.Fatalf("GET %s: status %d", path, resp)
		}
	}
}
