package obs

import (
	"testing"
	"time"
)

// BenchmarkTracerUnsampled measures the per-request cost of tracing on
// the path every request pays: one Begin that loses the sampling coin
// flip. It must report 0 allocs/op — TestUnsampledZeroAllocs asserts
// the same bound as a hard failure; the benchmark reports the ns/op.
//
//	go test -run '^$' -bench BenchmarkTracer -benchtime=2s ./internal/obs
func BenchmarkTracerUnsampled(b *testing.B) {
	tr := NewTracer("bench", 1<<30, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bld := tr.Begin(0)
		bld.Span("stage", "", time.Time{}, 0) // nil builder: no-op
		bld.Finish()
	}
}

// BenchmarkTracerSampled measures the full sampled path: Begin (pool
// get), three spans, Finish (ring publish + pool put).
func BenchmarkTracerSampled(b *testing.B) {
	tr := NewTracer("bench", 1, 16)
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bld := tr.Begin(0)
		bld.Span("rpc.queue_wait", "", now, time.Microsecond)
		bld.Span("serve.submit", "", now, time.Millisecond)
		bld.Span("rpc.place.binary", "", now, time.Millisecond)
		bld.Finish()
	}
}

// BenchmarkHistogramRecord measures one histogram Record — the cost
// added to every request on every instrumented tier.
func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i) & 0xfffff)
	}
}
