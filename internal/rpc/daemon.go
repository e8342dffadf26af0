// Package rpc is the network-facing placement service: a JSON-over-HTTP
// daemon and client stack layered on the internal/serve batching core.
// It is the layer where the BYOM split becomes operational — the model
// lives behind a wire protocol (internal/rpc/wire), so heterogeneous
// clients across a fleet consume placements without linking the model,
// and model rollout stays a registry publish away from every daemon.
//
// The daemon adds what in-process serving does not need:
//
//   - Admission control: each mutating endpoint holds a bounded
//     in-flight semaphore with queue-deadline shedding (429), so
//     overload degrades into fast, explicit rejections instead of
//     unbounded queueing.
//   - Graceful drain: Shutdown stops the listener, lets in-flight
//     handlers finish, then stops the shard workers — no decision is
//     dropped mid-request.
//   - An ops plane: /healthz for liveness (503 while draining) and
//     /varz for the shared text exposition of the daemon's and serving
//     core's counters.
//
// Model hot-swap is inherited from serve.Server: a registry publish
// swaps the compiled model atomically under live network load.
package rpc

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cost"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/registry"
	"repro/internal/rpc/wire"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Config tunes the placement daemon.
type Config struct {
	// Serve configures the underlying batching core (shards, batch
	// size, flush interval, controller).
	Serve serve.Config
	// MaxInFlightPlace bounds concurrent /v1/place requests; further
	// requests queue up to QueueDeadline, then shed with 429.
	MaxInFlightPlace int
	// MaxInFlightOutcome bounds concurrent /v1/outcome requests.
	MaxInFlightOutcome int
	// QueueDeadline is how long an over-limit request may wait for an
	// in-flight slot before being shed (0 sheds immediately).
	QueueDeadline time.Duration
	// MaxBatch caps jobs per place request (0 = no cap).
	MaxBatch int
	// MaxBodyBytes caps request body size (defaults to 8 MiB).
	MaxBodyBytes int64
	// Learner, when non-nil, also receives every /v1/outcome through
	// Observe, closing the online-learning loop over the network. The
	// daemon does not manage the learner's lifecycle; /varz gains its
	// online_* counters.
	Learner *online.Learner
	// OutcomeObserver, when non-nil, also receives every /v1/outcome
	// through Observe — the hook a rebalance heat tracker uses to learn
	// workload heat from the network feedback path. If the observer
	// additionally implements Stats() metrics.RebalanceSnapshot, /varz
	// gains its rebalance_* counters.
	OutcomeObserver sim.Observer
	// DisableBinary turns off the binary frame codec and the stream
	// endpoint: binary requests get 415, and /v1/model omits the bin
	// schema — the daemon then behaves exactly like a pre-binary
	// JSON-only build (used by the compatibility tests).
	DisableBinary bool
	// TraceSampleEvery samples 1 in N place requests into the /tracez
	// ring (0 disables self-sampling; requests arriving with a trace ID
	// from an upstream tier are always captured, since the ingress tier
	// owns the sampling decision). Unsampled requests pay one atomic
	// add and zero allocations.
	TraceSampleEvery int
	// TraceRing bounds the /tracez ring buffer (0 = 256 traces).
	TraceRing int
}

// DefaultConfig returns daemon parameters for an N-category model:
// the serve defaults plus 64 in-flight placement requests, 256
// in-flight feedback posts and a 5 ms queue deadline.
func DefaultConfig(numCategories int) Config {
	return Config{
		Serve:              serve.DefaultConfig(numCategories),
		MaxInFlightPlace:   64,
		MaxInFlightOutcome: 256,
		QueueDeadline:      5 * time.Millisecond,
		MaxBatch:           4096,
		MaxBodyBytes:       8 << 20,
	}
}

func (c *Config) validate() error {
	switch {
	case c.MaxInFlightPlace < 1:
		return fmt.Errorf("rpc: MaxInFlightPlace must be >= 1, got %d", c.MaxInFlightPlace)
	case c.MaxInFlightOutcome < 1:
		return fmt.Errorf("rpc: MaxInFlightOutcome must be >= 1, got %d", c.MaxInFlightOutcome)
	case c.QueueDeadline < 0:
		return fmt.Errorf("rpc: QueueDeadline must be >= 0, got %s", c.QueueDeadline)
	case c.MaxBatch < 0:
		return fmt.Errorf("rpc: MaxBatch must be >= 0, got %d", c.MaxBatch)
	}
	return nil
}

// Daemon is the placement service: an HTTP front-end over a
// serve.Server. Create with NewDaemon, start with Start (or mount
// Handler yourself), stop with Shutdown. All methods are safe for
// concurrent use.
type Daemon struct {
	cfg      Config
	workload string
	srv      *serve.Server
	counters metrics.RPCCounters
	place    *admission
	outcome  *admission
	draining atomic.Bool
	// scratch pools the binary hot path's per-request state (decode
	// buffers, decision scratch, response buffer), so a steady-state
	// place request allocates nothing in the handler.
	scratch sync.Pool

	// Hijacked stream connections are invisible to http.Server.Shutdown,
	// so the daemon tracks them itself and drains them explicitly.
	streamMu    sync.Mutex
	streamConns map[net.Conn]struct{}
	streamWG    sync.WaitGroup

	http     *http.Server
	listener net.Listener
	served   chan struct{} // closed when the accept loop exits
	serveErr error

	// Observability plane: start anchors /varz uptime, tracer feeds
	// /tracez, hists are the endpoint latency/queue-wait histograms.
	// None of them feed scenario reports — wall-clock data stays in the
	// ops endpoints (see internal/obs).
	start  time.Time
	tracer *obs.Tracer
	hists  daemonHists
}

// daemonHists holds the daemon's streaming latency histograms, one per
// hot path plus the shared admission queue wait. All are rendered as
// cumulative-bucket lines with estimated p50/p95/p99 on /varz.
type daemonHists struct {
	placeJSON   obs.Histogram
	placeBinary obs.Histogram
	outcome     obs.Histogram
	queueWait   obs.Histogram
}

// placeScratch is the pooled per-request state of the binary place path.
type placeScratch struct {
	body      []byte
	breq      wire.BinaryPlaceRequest
	decisions []serve.Decision
	wdecs     []wire.Decision
	out       []byte
}

// NewDaemon builds a daemon serving the workload's active model from
// reg. The underlying serve.Server subscribes to the registry, so
// publishes and rollbacks hot-swap the model mid-traffic.
func NewDaemon(reg *registry.Registry, workload string, cm *cost.Model, cfg Config) (*Daemon, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	srv, err := serve.New(reg, workload, cm, cfg.Serve)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:         cfg,
		workload:    workload,
		srv:         srv,
		place:       newAdmission(cfg.MaxInFlightPlace, cfg.QueueDeadline),
		outcome:     newAdmission(cfg.MaxInFlightOutcome, cfg.QueueDeadline),
		streamConns: map[net.Conn]struct{}{},
		served:      make(chan struct{}),
		start:       time.Now(),
		tracer:      obs.NewTracer("placementd", cfg.TraceSampleEvery, cfg.TraceRing),
	}
	d.scratch.New = func() any { return &placeScratch{} }
	d.http = &http.Server{Handler: d.Handler()}
	return d, nil
}

// Handler returns the daemon's HTTP handler (the full endpoint set),
// for mounting under a custom server or driving in-process in tests.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(wire.PathPlace, d.handlePlace)
	mux.HandleFunc(wire.PathOutcome, d.handleOutcome)
	mux.HandleFunc(wire.PathModel, d.handleModel)
	mux.HandleFunc(wire.PathStream, d.handleStream)
	mux.HandleFunc(wire.PathHealth, d.handleHealth)
	mux.HandleFunc(wire.PathVarz, d.handleVarz)
	mux.HandleFunc(wire.PathTracez, d.tracer.ServeTracez)
	return mux
}

// Start listens on addr (":0" picks a free port; see Addr) and serves
// in a background goroutine until Shutdown.
func (d *Daemon) Start(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("rpc: %w", err)
	}
	d.listener = l
	go func() {
		defer close(d.served)
		if err := d.http.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
			d.serveErr = err
		}
	}()
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (d *Daemon) Addr() string {
	if d.listener == nil {
		return ""
	}
	return d.listener.Addr().String()
}

// BaseURL returns the http:// URL clients should dial (after Start).
func (d *Daemon) BaseURL() string { return "http://" + d.Addr() }

// Shutdown drains the daemon: /healthz flips to draining, the listener
// closes, in-flight handlers run to completion (bounded by ctx), and
// the shard workers stop. The daemon cannot be reused.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.draining.Store(true)
	var first error
	if d.listener != nil {
		// http.Server.Shutdown closes the listener and waits for
		// handlers — every accepted request gets its response before
		// the serving core goes away below.
		if err := d.http.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		<-d.served
		if d.serveErr != nil && first == nil {
			first = d.serveErr
		}
	}
	// Hijacked stream connections are outside http.Shutdown's watch:
	// expire their blocked reads so each session finishes its in-flight
	// frame and exits, then wait for them (bounded by ctx).
	d.streamMu.Lock()
	for conn := range d.streamConns {
		_ = conn.SetReadDeadline(time.Now())
	}
	d.streamMu.Unlock()
	streamsDone := make(chan struct{})
	go func() {
		d.streamWG.Wait()
		close(streamsDone)
	}()
	select {
	case <-streamsDone:
	case <-ctx.Done():
		if first == nil {
			first = ctx.Err()
		}
	}
	if err := d.srv.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Kill hard-stops the daemon without a drain — what a crash or SIGKILL
// looks like to its peers: the listener and every active connection
// (including hijacked streams) close immediately, severing in-flight
// requests mid-frame, then the serving core is torn down. Requests that
// were already queued to the shard workers still complete internally;
// their responses are simply lost with the connections, exactly as on a
// real crash. Fault-injection tests use this to exercise client-side
// rerouting; operators want Shutdown.
func (d *Daemon) Kill() error {
	d.draining.Store(true)
	var first error
	// http.Server.Close severs the listener and all tracked conns and
	// returns without waiting for handlers; handlers then fail their
	// writes on dead sockets, which is the point.
	if err := d.http.Close(); err != nil {
		first = err
	}
	if d.listener != nil {
		<-d.served
	}
	// Hijacked stream connections left http.Server's tracking at
	// upgrade; kill them explicitly and wait for their frame loops to
	// notice the dead sockets.
	d.streamMu.Lock()
	for conn := range d.streamConns {
		_ = conn.Close()
	}
	d.streamMu.Unlock()
	d.streamWG.Wait()
	if err := d.srv.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Stats returns the daemon's request-counter snapshot.
func (d *Daemon) Stats() metrics.RPCSnapshot { return d.counters.Snapshot() }

// Tracer exposes the daemon's request tracer (for tests and embedders
// that want programmatic access to what /tracez serves).
func (d *Daemon) Tracer() *obs.Tracer { return d.tracer }

// ServeStats returns the underlying serving core's merged counters.
func (d *Daemon) ServeStats() metrics.ShardSnapshot { return d.srv.Stats() }

// ModelVersion returns the currently serving registry version number.
func (d *Daemon) ModelVersion() int { return d.srv.ModelVersion() }

// modelInfo assembles the /v1/model payload. The binning schema and
// encoder ride along (unless binary is disabled), so one fetch equips a
// client for local feature extraction + pre-binning.
func (d *Daemon) modelInfo() wire.ModelInfo {
	info := wire.ModelInfo{
		Workload:      d.workload,
		ModelVersion:  d.srv.ModelVersion(),
		NumCategories: d.cfg.Serve.Adaptive.NumCategories,
		Shards:        d.cfg.Serve.Shards,
		Swaps:         d.srv.Swaps(),
	}
	if !d.cfg.DisableBinary {
		enc, binner, version := d.srv.WireModel()
		info.Binary = true
		info.TraceIDs = true
		info.ModelVersion = version
		info.NumFeatures = binner.NumFeatures()
		info.BinEdges = binner.Edges
		info.BinCards = binner.Cards
		info.Encoder = enc
	}
	return info
}

// traceIDFromHeader parses the inbound trace-ID header. Absent or
// malformed headers yield 0 — tracing is best-effort and never fails
// a request.
func traceIDFromHeader(r *http.Request) uint64 {
	h := r.Header.Get(wire.TraceHeader)
	if h == "" {
		return 0
	}
	id, err := strconv.ParseUint(h, 16, 64)
	if err != nil {
		return 0
	}
	return id
}

// isBinaryRequest reports whether the request body is a binary frame.
func isBinaryRequest(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Content-Type"), wire.ContentTypeBinary)
}

// wantsBinary reports whether the client's Accept header names the
// binary media type. Anything else — absent, */*, unknown — selects the
// JSON fallback, so old clients and curl keep working untouched.
func wantsBinary(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), wire.ContentTypeBinary)
}

// handlePlace serves POST /v1/place: single and batch placement, in
// either codec. Content-Type picks the request codec; Accept picks the
// response codec (binary responses only follow binary requests — the
// JSON path carries job IDs the binary frames don't).
func (d *Daemon) handlePlace(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		d.methodNotAllowed(w, r)
		return
	}
	if isBinaryRequest(r) {
		d.handlePlaceBinary(w, r, start)
		return
	}
	b := d.tracer.Begin(traceIDFromHeader(r))
	defer b.Finish()
	if !d.place.acquire(r.Context()) {
		d.shed(w, r)
		return
	}
	defer d.place.release()
	wait := time.Since(start)
	d.hists.queueWait.RecordDuration(wait)
	b.Span("rpc.queue_wait", "", start, wait)
	var req wire.PlaceRequest
	if !d.decode(w, r, &req) {
		return
	}
	if err := req.Validate(d.cfg.MaxBatch); err != nil {
		d.badRequest(w, r, err)
		return
	}
	var submitStart time.Time
	if b != nil {
		submitStart = time.Now()
	}
	decisions, err := d.srv.SubmitBatch(req.Jobs, nil)
	if b != nil {
		b.Span("serve.submit", "", submitStart, time.Since(submitStart))
	}
	if err != nil {
		d.serverError(w, r, err)
		return
	}
	resp := wire.PlaceResponse{Decisions: make([]wire.Decision, len(decisions))}
	for i, dec := range decisions {
		resp.Decisions[i] = wire.Decision{
			JobID:        req.Jobs[i].ID,
			Admit:        dec.Admit,
			Category:     dec.Category,
			ModelVersion: dec.ModelVersion,
			Shard:        dec.Shard,
		}
	}
	// Count before the response bytes go out: a client that reads its
	// response and immediately scrapes /varz must see itself counted.
	lat := time.Since(start)
	d.counters.RecordPlace(false, len(req.Jobs), lat)
	d.hists.placeJSON.RecordDuration(lat)
	b.Span("rpc.place.json", "", start, lat)
	d.writeJSON(w, http.StatusOK, resp)
}

// handlePlaceBinary serves the binary frame path of /v1/place: body
// read, frame decode, SubmitEncoded, frame encode — all through pooled
// scratch, with no per-job feature work on the daemon (the client
// extracted and pre-binned the rows).
func (d *Daemon) handlePlaceBinary(w http.ResponseWriter, r *http.Request, start time.Time) {
	if d.cfg.DisableBinary {
		d.counters.RecordBadRequest()
		d.writeError(w, r, http.StatusUnsupportedMediaType, wire.ErrCodeBadRequest, "binary codec disabled; use application/json")
		return
	}
	if !d.place.acquire(r.Context()) {
		d.shed(w, r)
		return
	}
	defer d.place.release()
	wait := time.Since(start)
	d.hists.queueWait.RecordDuration(wait)
	sc := d.scratch.Get().(*placeScratch)
	defer d.scratch.Put(sc)
	body, err := readBody(http.MaxBytesReader(w, r.Body, d.cfg.MaxBodyBytes), sc.body[:0])
	sc.body = body
	if err != nil {
		d.badRequest(w, r, fmt.Errorf("reading request: %w", err))
		return
	}
	ft, payload, err := wire.DecodeFrame(body, int(d.cfg.MaxBodyBytes))
	if err != nil {
		d.badRequest(w, r, err)
		return
	}
	if ft != wire.FramePlaceRequest {
		d.badRequest(w, r, fmt.Errorf("wire: expected place-request frame, got type %d", ft))
		return
	}
	if err := wire.DecodePlaceRequest(payload, &sc.breq, d.cfg.MaxBatch); err != nil {
		d.badRequest(w, r, err)
		return
	}
	// The trace ID arrives in-frame (the negotiated binary extension);
	// the header is the fallback for JSON-speaking intermediaries. Begin
	// sits after decode so a propagated ID is never missed.
	tid := sc.breq.TraceID
	if tid == 0 {
		tid = traceIDFromHeader(r)
	}
	b := d.tracer.Begin(tid)
	defer b.Finish()
	b.Span("rpc.queue_wait", "", start, wait)
	var submitStart time.Time
	if b != nil {
		submitStart = time.Now()
	}
	sc.decisions, err = d.srv.SubmitEncoded(sc.breq.ModelVersion, sc.breq.Hashes, sc.breq.Arrivals, sc.breq.Rows, sc.decisions)
	if b != nil {
		b.Span("serve.submit", "", submitStart, time.Since(submitStart))
	}
	if err != nil {
		switch {
		case errors.Is(err, serve.ErrModelVersion):
			d.counters.RecordBadRequest()
			d.writeError(w, r, http.StatusConflict, wire.ErrCodeModelVersion, err.Error())
		case errors.Is(err, serve.ErrMalformedRow):
			d.badRequest(w, r, err)
		default:
			d.serverError(w, r, err)
		}
		return
	}
	sc.wdecs = appendWireDecisions(sc.wdecs[:0], sc.decisions)
	if wantsBinary(r) {
		var encStart time.Time
		if b != nil {
			encStart = time.Now()
		}
		sc.out, err = wire.AppendPlaceResponseFrame(sc.out[:0], sc.breq.ModelVersion, sc.wdecs)
		if b != nil {
			b.Span("rpc.encode", "", encStart, time.Since(encStart))
		}
		if err != nil {
			d.serverError(w, r, err)
			return
		}
		lat := time.Since(start)
		d.counters.RecordPlace(true, len(sc.breq.Rows), lat)
		d.hists.placeBinary.RecordDuration(lat)
		b.Span("rpc.place.binary", "", start, lat)
		w.Header().Set("Content-Type", wire.ContentTypeBinary)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(sc.out)
		return
	}
	// Binary request, JSON response (debug asymmetry). Job IDs never
	// crossed the wire, so decisions are matched by order alone.
	lat := time.Since(start)
	d.counters.RecordPlace(true, len(sc.breq.Rows), lat)
	d.hists.placeBinary.RecordDuration(lat)
	b.Span("rpc.place.binary", "", start, lat)
	d.writeJSON(w, http.StatusOK, wire.PlaceResponse{Decisions: sc.wdecs})
}

// appendWireDecisions converts serve decisions to wire decisions
// (JobID left empty) into dst.
func appendWireDecisions(dst []wire.Decision, decisions []serve.Decision) []wire.Decision {
	for _, dec := range decisions {
		dst = append(dst, wire.Decision{
			Admit:        dec.Admit,
			Category:     dec.Category,
			ModelVersion: dec.ModelVersion,
			Shard:        dec.Shard,
		})
	}
	return dst
}

// readBody reads r fully into buf (reused; grown as needed).
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// handleOutcome serves POST /v1/outcome: spillover feedback routed to
// the job's admission shard (and the attached learner, if any).
func (d *Daemon) handleOutcome(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		d.methodNotAllowed(w, r)
		return
	}
	b := d.tracer.Begin(traceIDFromHeader(r))
	defer b.Finish()
	if !d.outcome.acquire(r.Context()) {
		d.shed(w, r)
		return
	}
	defer d.outcome.release()
	wait := time.Since(start)
	d.hists.queueWait.RecordDuration(wait)
	b.Span("rpc.queue_wait", "", start, wait)
	var req wire.OutcomeRequest
	if !d.decode(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		d.badRequest(w, r, err)
		return
	}
	o := sim.Outcome{
		WantedSSD: req.Outcome.WantedSSD,
		FracOnSSD: req.Outcome.FracOnSSD,
		SpilledAt: req.Outcome.SpilledAt,
		EvictedAt: req.Outcome.EvictedAt,
	}
	if err := d.srv.Observe(req.Job, o); err != nil {
		d.serverError(w, r, err)
		return
	}
	if d.cfg.Learner != nil {
		d.cfg.Learner.Observe(req.Job, req.Category, o)
	}
	if d.cfg.OutcomeObserver != nil {
		d.cfg.OutcomeObserver.Observe(req.Job, o)
	}
	lat := time.Since(start)
	d.counters.RecordOutcome(lat)
	d.hists.outcome.RecordDuration(lat)
	b.Span("rpc.outcome", "", start, lat)
	w.WriteHeader(http.StatusNoContent)
}

// handleModel serves GET /v1/model: active-model metadata plus the
// client-side binning schema.
func (d *Daemon) handleModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		d.methodNotAllowed(w, r)
		return
	}
	d.counters.RecordModelInfo()
	d.writeJSON(w, http.StatusOK, d.modelInfo())
}

// handleHealth serves GET /healthz: 200 while serving, 503 once
// draining so load balancers stop routing before the listener closes.
func (d *Daemon) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if d.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleVarz serves GET /varz: the shared text exposition of the
// daemon's and serving core's counters.
func (d *Daemon) handleVarz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	v := &varzData{
		info:        d.modelInfo(),
		proc:        obs.CollectProc(d.start),
		rpc:         d.counters.Snapshot(),
		srv:         d.srv.Stats(),
		placeJSON:   d.hists.placeJSON.Snapshot(),
		placeBinary: d.hists.placeBinary.Snapshot(),
		outcome:     d.hists.outcome.Snapshot(),
		queueWait:   d.hists.queueWait.Snapshot(),
		batchLat:    d.srv.BatchLatency(),
		queueDepth:  d.srv.QueueDepth(),
	}
	if d.cfg.Learner != nil {
		s := d.cfg.Learner.Stats()
		v.onl = &s
	}
	if st, ok := d.cfg.OutcomeObserver.(interface {
		Stats() metrics.RebalanceSnapshot
	}); ok {
		s := st.Stats()
		v.reb = &s
	}
	if sl, ok := d.cfg.OutcomeObserver.(interface {
		SolveLatency() obs.HistSnapshot
	}); ok {
		s := sl.SolveLatency()
		v.solve = &s
	}
	writeVarz(w, v)
}

// handleStream serves POST /v1/stream: the persistent binary streaming
// mode. The daemon hijacks the connection, answers 101 Switching
// Protocols, and then speaks length-prefixed place frames in both
// directions until the client closes or the daemon drains. Each
// incoming frame takes a place-admission slot, so streams share the
// same overload envelope as request/response traffic.
func (d *Daemon) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		d.methodNotAllowed(w, r)
		return
	}
	if d.cfg.DisableBinary {
		d.counters.RecordBadRequest()
		d.writeError(w, r, http.StatusNotFound, wire.ErrCodeBadRequest, "streaming disabled")
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		d.serverError(w, r, fmt.Errorf("rpc: transport does not support streaming"))
		return
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		d.serverError(w, r, fmt.Errorf("rpc: hijack: %w", err))
		return
	}
	d.streamMu.Lock()
	if d.draining.Load() {
		d.streamMu.Unlock()
		_ = conn.Close()
		return
	}
	d.streamConns[conn] = struct{}{}
	d.streamWG.Add(1)
	d.streamMu.Unlock()
	// The hijacked connection may carry an http.Server read deadline;
	// streams live until drain expires them explicitly.
	_ = conn.SetReadDeadline(time.Time{})
	if _, err := rw.WriteString("HTTP/1.1 101 Switching Protocols\r\nUpgrade: " + wire.ContentTypeBinary + "\r\nConnection: Upgrade\r\n\r\n"); err == nil {
		err = rw.Flush()
	}
	if err != nil {
		d.dropStream(conn)
		return
	}
	d.counters.RecordStreamSession()
	d.serveStream(conn, rw)
}

// dropStream unregisters and closes one stream connection.
func (d *Daemon) dropStream(conn net.Conn) {
	d.streamMu.Lock()
	delete(d.streamConns, conn)
	d.streamMu.Unlock()
	_ = conn.Close()
	d.streamWG.Done()
}

// serveStream is one stream session's frame loop, run on the hijacked
// handler goroutine with pooled scratch: read a place-request frame,
// serve it, write the response (or error) frame, repeat. Responses are
// written in frame order, so clients may pipeline requests without
// waiting. Recoverable per-frame failures (bad payload, shed, stale
// version) answer with an error frame and keep the session alive —
// framing stays intact; transport errors end the session.
func (d *Daemon) serveStream(conn net.Conn, rw *bufio.ReadWriter) {
	defer d.dropStream(conn)
	sc := d.scratch.Get().(*placeScratch)
	defer d.scratch.Put(sc)
	for {
		start := time.Now()
		ft, buf, payload, err := wire.ReadFrame(rw.Reader, sc.body, int(d.cfg.MaxBodyBytes))
		sc.body = buf
		if err != nil {
			if err != io.EOF {
				// Framing is unrecoverable: report best-effort, close.
				d.counters.RecordBadRequest()
				_ = d.writeStreamError(rw, wire.ErrCodeBadRequest, err.Error())
			}
			return
		}
		if ft != wire.FramePlaceRequest {
			d.counters.RecordBadRequest()
			_ = d.writeStreamError(rw, wire.ErrCodeBadRequest, fmt.Sprintf("wire: expected place-request frame, got type %d", ft))
			return
		}
		if err := wire.DecodePlaceRequest(payload, &sc.breq, d.cfg.MaxBatch); err != nil {
			d.counters.RecordBadRequest()
			if d.writeStreamError(rw, wire.ErrCodeBadRequest, err.Error()) != nil {
				return
			}
			continue
		}
		b := d.tracer.Begin(sc.breq.TraceID)
		if !d.place.acquire(context.Background()) {
			b.Finish()
			d.counters.RecordShed()
			if d.writeStreamError(rw, wire.ErrCodeOverloaded, "overloaded: in-flight limit reached past queue deadline") != nil {
				return
			}
			continue
		}
		wait := time.Since(start)
		d.hists.queueWait.RecordDuration(wait)
		b.Span("rpc.queue_wait", "", start, wait)
		var submitStart time.Time
		if b != nil {
			submitStart = time.Now()
		}
		sc.decisions, err = d.srv.SubmitEncoded(sc.breq.ModelVersion, sc.breq.Hashes, sc.breq.Arrivals, sc.breq.Rows, sc.decisions)
		if b != nil {
			b.Span("serve.submit", "", submitStart, time.Since(submitStart))
		}
		d.place.release()
		if err != nil {
			b.Finish()
			code := wire.ErrCodeServer
			switch {
			case errors.Is(err, serve.ErrModelVersion):
				code = wire.ErrCodeModelVersion
				d.counters.RecordBadRequest()
			case errors.Is(err, serve.ErrMalformedRow):
				code = wire.ErrCodeBadRequest
				d.counters.RecordBadRequest()
			default:
				d.counters.RecordServerError()
			}
			if d.writeStreamError(rw, code, err.Error()) != nil {
				return
			}
			continue
		}
		sc.wdecs = appendWireDecisions(sc.wdecs[:0], sc.decisions)
		sc.out, err = wire.AppendPlaceResponseFrame(sc.out[:0], sc.breq.ModelVersion, sc.wdecs)
		if err != nil {
			b.Finish()
			d.counters.RecordServerError()
			if d.writeStreamError(rw, wire.ErrCodeServer, err.Error()) != nil {
				return
			}
			continue
		}
		if _, err := rw.Write(sc.out); err != nil {
			b.Finish()
			return
		}
		if err := rw.Flush(); err != nil {
			b.Finish()
			return
		}
		d.counters.RecordStreamFrame()
		lat := time.Since(start)
		d.counters.RecordPlace(true, len(sc.breq.Rows), lat)
		d.hists.placeBinary.RecordDuration(lat)
		b.Span("rpc.place.stream", "", start, lat)
		b.Finish()
	}
}

// writeStreamError sends one error frame on a stream session.
func (d *Daemon) writeStreamError(rw *bufio.ReadWriter, code uint16, msg string) error {
	if _, err := rw.Write(wire.AppendErrorFrame(nil, code, msg)); err != nil {
		return err
	}
	return rw.Flush()
}

// decode reads and unmarshals a JSON request body, answering 400 and
// counting a bad request on failure.
func (d *Daemon) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	body := http.MaxBytesReader(w, r.Body, d.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(into); err != nil {
		d.badRequest(w, r, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// writeError answers a failed request in the negotiated codec: an error
// frame for binary-accepting clients, the JSON ErrorResponse otherwise.
func (d *Daemon) writeError(w http.ResponseWriter, r *http.Request, status int, code uint16, msg string) {
	if wantsBinary(r) && !d.cfg.DisableBinary {
		w.Header().Set("Content-Type", wire.ContentTypeBinary)
		w.WriteHeader(status)
		_, _ = w.Write(wire.AppendErrorFrame(nil, code, msg))
		return
	}
	d.writeJSON(w, status, wire.ErrorResponse{Error: msg})
}

func (d *Daemon) shed(w http.ResponseWriter, r *http.Request) {
	d.counters.RecordShed()
	// Guidance for stock HTTP clients; rpc.Client uses its own finer
	// backoff. Retry-After takes whole seconds, so 1 is the minimum
	// honest value.
	w.Header().Set("Retry-After", "1")
	d.writeError(w, r, http.StatusTooManyRequests, wire.ErrCodeOverloaded, "overloaded: in-flight limit reached past queue deadline")
}

func (d *Daemon) badRequest(w http.ResponseWriter, r *http.Request, err error) {
	d.counters.RecordBadRequest()
	d.writeError(w, r, http.StatusBadRequest, wire.ErrCodeBadRequest, err.Error())
}

func (d *Daemon) serverError(w http.ResponseWriter, r *http.Request, err error) {
	d.counters.RecordServerError()
	d.writeError(w, r, http.StatusServiceUnavailable, wire.ErrCodeServer, err.Error())
}

func (d *Daemon) methodNotAllowed(w http.ResponseWriter, r *http.Request) {
	d.counters.RecordBadRequest()
	d.writeError(w, r, http.StatusMethodNotAllowed, wire.ErrCodeBadRequest, "method not allowed")
}

func (d *Daemon) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
