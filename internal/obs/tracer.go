package obs

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one stage of a sampled request: where time went, as an offset
// from the trace's start. Stages are named by the layer that records
// them (rpc.queue_wait, serve.submit, router.dispatch, ...); Detail
// optionally narrows the stage (e.g. the dispatch target's URL).
type Span struct {
	Stage   string `json:"stage"`
	Detail  string `json:"detail,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// Trace is one sampled request's span record. The ID is minted at
// ingress (or adopted from the peer that minted it), so the same ID
// shows up in every tier's /tracez that handled the request — that is
// the whole cross-tier story: no span shipping, just a shared key.
type Trace struct {
	ID          uint64 `json:"-"`
	Node        string `json:"node"`
	StartUnixNs int64  `json:"start_unix_ns"`
	Spans       []Span `json:"spans"`
}

// Tracer samples requests 1-in-N at ingress and keeps the most recent
// sampled traces in a bounded ring. All methods tolerate a nil
// receiver (tracing disabled) and a nil *TraceBuilder (request
// unsampled), so call sites stay unconditional. The unsampled path is
// one atomic add and zero allocations — asserted by test and benchmark.
type Tracer struct {
	node     string
	every    uint64 // self-sample 1 in every; 0 = only propagated IDs
	ringSize int

	tick    atomic.Uint64
	sampled atomic.Int64
	pool    sync.Pool

	mu     sync.Mutex
	traces []Trace
	next   int
}

// NewTracer builds a tracer for one process. node names the tier in
// rendered traces ("placementd", "placementfront"). sampleEvery <= 0
// disables self-sampling (propagated trace IDs are still captured);
// ringSize <= 0 defaults to 256.
func NewTracer(node string, sampleEvery, ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = 256
	}
	every := uint64(0)
	if sampleEvery > 0 {
		every = uint64(sampleEvery)
	}
	t := &Tracer{node: node, every: every, ringSize: ringSize, traces: make([]Trace, ringSize)}
	t.pool.New = func() any { return &TraceBuilder{} }
	return t
}

// Node returns the tracer's tier name.
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.node
}

// SampleEvery returns the self-sampling rate (0 = off).
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return int(t.every)
}

// RingSize returns the trace ring capacity.
func (t *Tracer) RingSize() int {
	if t == nil {
		return 0
	}
	return t.ringSize
}

// Sampled returns how many traces have been captured since start.
func (t *Tracer) Sampled() int64 {
	if t == nil {
		return 0
	}
	return t.sampled.Load()
}

// Begin opens a trace for one request. propagated carries a trace ID
// minted by an upstream tier (0 = none): a propagated ID is always
// captured — the ingress tier made the sampling decision — while a
// fresh request is sampled 1-in-every. Returns nil (and does no work
// beyond one atomic add) when the request is unsampled.
func (t *Tracer) Begin(propagated uint64) *TraceBuilder {
	if t == nil {
		return nil
	}
	if propagated == 0 {
		if t.every == 0 || t.tick.Add(1)%t.every != 0 {
			return nil
		}
		propagated = MintTraceID()
	}
	b := t.pool.Get().(*TraceBuilder)
	b.t = t
	b.id = propagated
	b.start = time.Now()
	b.spans = b.spans[:0]
	return b
}

// MintTraceID returns a fresh nonzero trace ID.
func MintTraceID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// TraceBuilder accumulates one sampled request's spans. Span is safe
// for concurrent use (fan-out tiers record from dispatch goroutines);
// Finish publishes the trace into the ring and recycles the builder.
type TraceBuilder struct {
	t     *Tracer
	id    uint64
	start time.Time

	mu    sync.Mutex
	spans []Span
}

// ID returns the trace ID (0 on a nil builder), for propagation.
func (b *TraceBuilder) ID() uint64 {
	if b == nil {
		return 0
	}
	return b.id
}

// Span records one stage: start is the stage's wall instant, dur how
// long it ran. No-op on a nil builder.
func (b *TraceBuilder) Span(stage, detail string, start time.Time, dur time.Duration) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.spans = append(b.spans, Span{
		Stage:   stage,
		Detail:  detail,
		StartNs: start.Sub(b.start).Nanoseconds(),
		DurNs:   dur.Nanoseconds(),
	})
	b.mu.Unlock()
}

// Finish publishes the trace into the tracer's ring (overwriting the
// oldest entry when full) and recycles the builder. The builder must
// not be used after. No-op on a nil builder.
func (b *TraceBuilder) Finish() {
	if b == nil {
		return
	}
	t := b.t
	t.sampled.Add(1)
	t.mu.Lock()
	slot := &t.traces[t.next]
	t.next = (t.next + 1) % len(t.traces)
	slot.ID = b.id
	slot.Node = t.node
	slot.StartUnixNs = b.start.UnixNano()
	slot.Spans = append(slot.Spans[:0], b.spans...)
	t.mu.Unlock()
	b.t = nil
	b.id = 0
	t.pool.Put(b)
}

// Snapshot returns the ring's sampled traces, newest first, with
// copied span slices.
func (t *Tracer) Snapshot() []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.traces)
	out := make([]Trace, 0, n)
	for i := 1; i <= n; i++ {
		tr := t.traces[((t.next-i)%n+n)%n]
		if tr.ID == 0 {
			break // older slots are empty too: the ring fills forward
		}
		cp := tr
		cp.Spans = append([]Span(nil), tr.Spans...)
		out = append(out, cp)
	}
	return out
}
