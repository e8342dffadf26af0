// Package rpc is the network-facing placement service: a daemon and
// client stack layered on the internal/serve batching core. It is the
// layer where the BYOM split becomes operational — the model lives
// behind a wire protocol (internal/rpc/wire), so heterogeneous clients
// across a fleet consume placements without linking the model, and
// model rollout stays a registry publish away from every daemon.
//
// A place batch arrives two ways — a JSON body over HTTP, a binary frame
// on a persistent stream — and is served one way. Daemon.servePlace is
// the pipeline: begin the trace, submit to the serving core, map a
// failure to one of the four wire codes, convert and encode the
// decisions into pooled scratch, count, time, span. Two transport shells
// call it, handlePlace (HTTP request/response, JSON) and serveStream
// (hijacked connection, frames), and own only what differs between them:
// how a request is framed, where the admission slot is taken (before the
// body is read on HTTP, so overload never buffers bodies; after the
// blocking frame read on a stream, so an idle session holds no slot) and
// how a wire code goes out (the httpStatus table with an ErrorResponse,
// or an error frame). A JSON body is read and its answer written by the wire
// package's reflection-free codec in the same pooled scratch a frame
// uses (ReadPlaceJSON and WritePlaceJSON, which placementfront's handler
// shares; the answer goes out with its length, not chunked), so the jobs
// of a request are the scratch's: good while the pipeline runs,
// overwritten by the next request. JSON jobs enter the core through
// serve.SubmitBatch and frames through serve.SubmitEncoded: raw jobs
// need no bin schema, so the JSON path has no stale-version retry to
// run, and both entries already share one fan-out and one inference
// path inside serve.
//
// Outcome feedback, which is 1:1 with placements, is served the same
// way: Daemon.serveOutcome is the one outcome pipeline (begin the trace,
// validate, apply to the controller, hand to the learner and the
// observer, count, time, span) under two shells. handleOutcome takes
// JSON over HTTP, the documented API; serveStream takes outcome-request
// frames on the sessions that carry place frames, dispatching on frame
// type: a place frame runs under a place admission slot and an outcome
// frame under an outcome slot, each answered by its response or ack
// frame, or an error frame that leaves the session open. The 204 and the
// ack are written after serve.Observe has returned, and Observe is
// synchronous, so either one means the controller has the outcome. An
// outcome frame is decoded in place (wire.DecodeOutcomeView) into the
// session's pooled scratch and allocates nothing; only a daemon with a
// Learner or an OutcomeObserver attached, which keep jobs, pays for an
// owned copy (OutcomeView.Own).
//
// The client mirrors it: Client.run is the one retry loop (shed → one
// jittered back-off, stale version → refresh and re-bin) over a round
// trip that is a JSON request over HTTP or a frame exchange on a stream,
// and Client.onSession is the one session loop under the two operations
// that borrow a session from the client's idle list: Place and Observe.
// Both follow one capability rule (Client.frameState): every daemon
// ships its bin schema on /v1/model, and a binary-codec client sends the
// frame once it holds that schema and the JSON form of the same request
// when the fetch failed. And one lost-connection rule: a reused session
// that proves to have died while parked (StreamSession.deadOnUse)
// re-sends once on a fresh one; a timeout or a garbled reply never does.
// Client.AppendPlace appends decisions to a slice the caller owns (the
// router keeps one per pooled node batch and clears it after use); Place
// is AppendPlace into nil. JSON goes by bare http.Transport.RoundTrip.
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
	"repro/internal/trace"
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
	// MaxBodyBytes caps request body size (defaults to
	// DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// Learner, when non-nil, also receives every /v1/outcome through
	// Observe, closing the online-learning loop over the network. The
	// daemon does not manage the learner's lifecycle; /varz gains its
	// online_* counters.
	Learner *online.Learner
	// OutcomeObserver, when non-nil, also receives every /v1/outcome
	// through Observe — the hook a rebalance heat tracker uses to learn
	// workload heat from the network feedback path.
	OutcomeObserver sim.Observer
	// TraceSampleEvery samples 1 in N place requests into the /tracez
	// ring (0 disables self-sampling; requests arriving with a trace ID
	// from an upstream tier are always captured, since the ingress tier
	// owns the sampling decision). Unsampled requests pay one atomic
	// add and zero allocations. The /tracez ring keeps the last 256.
	TraceSampleEvery int
}

// DefaultMaxBodyBytes is the request body cap of DefaultConfig, the one
// placementfront applies to the same two documents, and the frame
// decoders' default payload cap.
const DefaultMaxBodyBytes = wire.DefaultMaxFramePayload

// DefaultMaxBatch is the per-request job cap of DefaultConfig and the
// one placementfront applies, so a front and its daemons refuse the
// same batches.
const DefaultMaxBatch = 4096

// DefaultConfig returns daemon parameters for an N-category model:
// the serve defaults plus 64 in-flight placement requests, 256
// in-flight feedback posts and a 5 ms queue deadline.
func DefaultConfig(numCategories int) Config {
	return Config{
		Serve:              serve.DefaultConfig(numCategories),
		MaxInFlightPlace:   64,
		MaxInFlightOutcome: 256,
		QueueDeadline:      5 * time.Millisecond,
		MaxBatch:           DefaultMaxBatch,
		MaxBodyBytes:       DefaultMaxBodyBytes,
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
	reg      *registry.Registry
	srv      *serve.Server
	counters daemonCounters
	place    *admission
	outcome  *admission
	draining atomic.Bool
	// scratch pools the place pipeline's per-request state (decode
	// buffers, decision scratch, response buffer), so a steady-state
	// binary place allocates nothing in the daemon.
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

// daemonCounters are the daemon's request counts that no histogram
// holds; DaemonStats reads the rest off daemonHists.
type daemonCounters struct {
	placeJobs, streamSessions, modelRequests atomic.Int64
	shed, badRequests, serverErrors          atomic.Int64
}

// daemonHists holds the daemon's streaming latency histograms, one per
// hot path plus the shared admission queue wait. All are rendered as
// cumulative-bucket lines with estimated p50/p95/p99 on /varz. Each
// served place is one placeJSON or placeBinary record and each served
// outcome one outcome record, so they are also the request counts.
type daemonHists struct {
	placeJSON   obs.Histogram
	placeBinary obs.Histogram
	outcome     obs.Histogram
	queueWait   obs.Histogram
}

// placeScratch is the pooled per-request state of the place pipeline
// and, on a stream session, of the outcome pipeline beside it.
type placeScratch struct {
	body      []byte
	json      wire.JSONScratch // the jobs of a JSON body
	breq      wire.BinaryPlaceRequest
	decisions []serve.Decision
	wdecs     []wire.Decision
	out       []byte
	// An outcome frame decodes in place: its numerics into job, the rest
	// left in body, which outcome borrows until the next frame is read.
	outcome wire.OutcomeView
	job     trace.Job
}

// NewDaemon builds a daemon serving the workload's active model from
// reg. The underlying serve.Server subscribes to the registry, so
// publishes and rollbacks hot-swap the model mid-traffic.
func NewDaemon(reg *registry.Registry, workload string, cm *cost.Model, cfg Config) (*Daemon, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	srv, err := serve.New(reg, workload, cm, cfg.Serve)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:         cfg,
		workload:    workload,
		reg:         reg,
		srv:         srv,
		place:       newAdmission(cfg.MaxInFlightPlace, cfg.QueueDeadline),
		outcome:     newAdmission(cfg.MaxInFlightOutcome, cfg.QueueDeadline),
		streamConns: map[net.Conn]struct{}{},
		served:      make(chan struct{}),
		start:       time.Now(),
		tracer:      obs.NewTracer("placementd", cfg.TraceSampleEvery, 0),
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

// DaemonStats is a point-in-time copy of the daemon's request counters,
// in /varz order (obs.WriteVars).
type DaemonStats struct {
	// PlaceRequests counts served place batches (a JSON body or a
	// frame), PlaceJobs the placements they carried; PlaceJSON and
	// PlaceBinary split the batches by codec.
	PlaceRequests int64 `varz:"place_requests"`
	PlaceJobs     int64 `varz:"place_jobs"`
	PlaceJSON     int64 `varz:"place_json_total"`
	PlaceBinary   int64 `varz:"place_binary_total"`
	// StreamSessions counts accepted stream sessions; every binary place
	// is a frame on one.
	StreamSessions int64 `varz:"stream_sessions"`

	OutcomeRequests int64 `varz:"outcome_requests"`
	ModelRequests   int64 `varz:"model_requests"`
	// Shed counts 429s (admission), BadRequests other refusals the client
	// caused, ServerErrors the ones the daemon did.
	Shed         int64 `varz:"shed"`
	BadRequests  int64 `varz:"bad_requests"`
	ServerErrors int64 `varz:"server_errors"`
	// MeanLatency and MaxLatency cover served places and outcomes alike.
	MeanLatency time.Duration `varz:"mean_latency_ns"`
	MaxLatency  time.Duration `varz:"max_latency_ns"`
}

// Stats returns the daemon's request-counter snapshot. Concurrent
// requests may tear between fields; each field is consistent.
func (d *Daemon) Stats() DaemonStats {
	placeJSON, placeBinary, outcome := d.hists.placeJSON.Snapshot(), d.hists.placeBinary.Snapshot(), d.hists.outcome.Snapshot()
	return d.stats(&placeJSON, &placeBinary, &outcome)
}

// stats assembles DaemonStats from the counters and from snapshots of
// the endpoint histograms, which hold the request counts and latencies.
// /varz passes the snapshots it renders, so the page's request counts
// equal its histogram counts.
func (d *Daemon) stats(placeJSON, placeBinary, outcome *obs.HistSnapshot) DaemonStats {
	c := &d.counters
	s := DaemonStats{
		PlaceRequests:   placeJSON.Count + placeBinary.Count,
		PlaceJobs:       c.placeJobs.Load(),
		PlaceJSON:       placeJSON.Count,
		PlaceBinary:     placeBinary.Count,
		StreamSessions:  c.streamSessions.Load(),
		OutcomeRequests: outcome.Count,
		ModelRequests:   c.modelRequests.Load(),
		Shed:            c.shed.Load(),
		BadRequests:     c.badRequests.Load(),
		ServerErrors:    c.serverErrors.Load(),
		MaxLatency:      time.Duration(max(placeJSON.Max, placeBinary.Max, outcome.Max)),
	}
	if served := s.PlaceRequests + s.OutcomeRequests; served > 0 {
		s.MeanLatency = time.Duration((placeJSON.Sum + placeBinary.Sum + outcome.Sum) / served)
	}
	return s
}

// Tracer exposes the daemon's request tracer (for tests and embedders
// that want programmatic access to what /tracez serves).
func (d *Daemon) Tracer() *obs.Tracer { return d.tracer }

// ServeStats returns the underlying serving core's merged counters.
func (d *Daemon) ServeStats() metrics.ShardSnapshot { return d.srv.Stats() }

// ModelVersion returns the currently serving registry version number.
func (d *Daemon) ModelVersion() int { return d.srv.ModelVersion() }

// modelInfo assembles the /v1/model payload. The binning schema and
// encoder ride along, so one fetch equips a client for local feature
// extraction + pre-binning.
func (d *Daemon) modelInfo() wire.ModelInfo {
	enc, binner, version := d.srv.WireModel()
	return wire.ModelInfo{
		Workload:      d.workload,
		ModelVersion:  version,
		NumCategories: d.cfg.Serve.Adaptive.NumCategories,
		Shards:        d.cfg.Serve.Shards,
		Swaps:         d.srv.Swaps(),
		NumFeatures:   binner.NumFeatures(),
		BinEdges:      binner.Edges,
		BinCards:      binner.Cards,
		Encoder:       enc,
	}
}

// transport names the two ways a place batch reaches the pipeline; it
// picks the submit entry, the answer's codec, the counters, the latency
// histogram and the span name.
type transport int

const (
	viaJSON transport = iota
	viaStream
)

var placeSpans = [...]string{viaJSON: "rpc.place.json", viaStream: "rpc.place.stream"}

// placeCall is what a transport shell hands the pipeline with its
// scratch: an admitted, decoded batch (jobs for a JSON body, sc.breq
// for a frame), answered in the codec it came in.
type placeCall struct {
	via     transport
	jobs    []*trace.Job  // viaJSON only
	traceID uint64        // propagated by the caller, 0 = sample locally
	start   time.Time     // when the shell first saw the request
	wait    time.Duration // how long admission held it
}

// servePlace is the one place pipeline. It leaves the encoded response
// in sc.out and returns 0, or returns the wire code and message the
// shell must refuse the batch with; it never writes to the connection.
// Counting happens here, before the shell sends the bytes, so a client
// that reads its response and at once scrapes /varz sees itself.
func (d *Daemon) servePlace(sc *placeScratch, pc placeCall) (uint16, string) {
	d.hists.queueWait.RecordDuration(pc.wait)
	// Begin sits after decode so an ID propagated in-frame is never
	// missed; queue_wait therefore carries a negative offset.
	b := d.tracer.Begin(pc.traceID)
	defer b.Finish()
	b.Span("rpc.queue_wait", "", pc.start, pc.wait)

	var err error
	t := stamp(b)
	if pc.via == viaJSON {
		sc.decisions, err = d.srv.SubmitBatch(pc.jobs, sc.decisions)
	} else {
		sc.decisions, err = d.srv.SubmitEncoded(sc.breq.ModelVersion, sc.breq.Hashes, sc.breq.Arrivals, sc.breq.Rows, sc.decisions)
	}
	span(b, "serve.submit", t)
	switch {
	case err == nil:
	case errors.Is(err, serve.ErrModelVersion):
		return wire.ErrCodeModelVersion, err.Error()
	case errors.Is(err, serve.ErrMalformedRow):
		return wire.ErrCodeBadRequest, err.Error()
	default:
		return wire.ErrCodeServer, err.Error()
	}

	// Frames answer rows in order and carry no job IDs; JSON echoes them.
	sc.wdecs = sc.wdecs[:0]
	for i, dec := range sc.decisions {
		wd := wire.Decision{Admit: dec.Admit, Category: dec.Category, ModelVersion: dec.ModelVersion, Shard: dec.Shard}
		if pc.via == viaJSON {
			wd.JobID = pc.jobs[i].ID
		}
		sc.wdecs = append(sc.wdecs, wd)
	}
	t = stamp(b)
	if pc.via == viaStream {
		sc.out, err = wire.AppendPlaceResponseFrame(sc.out[:0], sc.breq.ModelVersion, sc.wdecs)
	} else {
		sc.out = append(wire.AppendPlaceResponseJSON(sc.out[:0], sc.wdecs), '\n')
	}
	span(b, "rpc.encode", t)
	if err != nil {
		return wire.ErrCodeServer, err.Error()
	}

	lat := time.Since(pc.start)
	d.counters.placeJobs.Add(int64(len(sc.decisions)))
	hist := &d.hists.placeJSON
	if pc.via == viaStream {
		hist = &d.hists.placeBinary
	}
	hist.RecordDuration(lat)
	b.Span(placeSpans[pc.via], "", pc.start, lat)
	return 0, ""
}

// stamp reads the clock for a sampled request only, and span closes the
// stage stamp opened: unsampled requests pay for neither clock read.
func stamp(b *obs.TraceBuilder) (t time.Time) {
	if b != nil {
		t = time.Now()
	}
	return t
}

func span(b *obs.TraceBuilder, stage string, since time.Time) {
	if b != nil {
		b.Span(stage, "", since, time.Since(since))
	}
}

// handlePlace is the HTTP shell of the place pipeline, serving POST
// /v1/place as JSON: the documented API, for curl, JSON-codec and non-Go
// clients and the front's external endpoint. Frames travel on stream
// sessions only, so a body that announces itself as one is pointed there.
func (d *Daemon) handlePlace(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		d.methodNotAllowed(w)
		return
	}
	if strings.Contains(r.Header.Get("Content-Type"), wire.ContentTypeBinary) {
		d.failStatus(w, http.StatusUnsupportedMediaType, wire.ErrCodeBadRequest,
			"POST "+wire.PathPlace+" takes application/json; binary frames travel on POST "+wire.PathStream)
		return
	}
	if !d.place.acquire(r.Context()) {
		d.fail(w, wire.ErrCodeOverloaded, shedMessage)
		return
	}
	defer d.place.release()
	pc := placeCall{via: viaJSON, traceID: wire.TraceIDFromHeader(r.Header), start: start, wait: time.Since(start)}
	sc := d.scratch.Get().(*placeScratch)
	defer d.scratch.Put(sc)
	var err error
	if pc.jobs, err = ReadPlaceJSON(w, r, d.cfg.MaxBodyBytes, d.cfg.MaxBatch, &sc.body, &sc.json); err != nil {
		d.fail(w, wire.ErrCodeBadRequest, err.Error())
		return
	}
	if code, msg := d.servePlace(sc, pc); code != 0 {
		d.fail(w, code, msg)
		return
	}
	WritePlaceJSON(w, sc.out)
}

// contentTypeJSON is every JSON request's and place response's type,
// one shared slice that a header only ever replaces, never edits.
var contentTypeJSON = []string{wire.ContentTypeJSON}

// WritePlaceJSON sends a whole encoded place response, sized, not chunked.
func WritePlaceJSON(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = contentTypeJSON
	w.Header()["Content-Length"] = []string{strconv.Itoa(len(body))}
	_, _ = w.Write(body) // the first write sends the 200
}

// ReadPlaceJSON is the JSON framing of a place request, for the two HTTP
// shells that take one, the daemon's and placementfront's: the body, at
// most maxBody bytes of it, read into *body (reused from call to call),
// decoded by the wire codec into sc's storage and validated. The jobs
// are sc's and are good until it decodes again.
func ReadPlaceJSON(w http.ResponseWriter, r *http.Request, maxBody int64, maxBatch int, body *[]byte, sc *wire.JSONScratch) ([]*trace.Job, error) {
	var err error
	if *body, err = readBody(http.MaxBytesReader(w, r.Body, maxBody), (*body)[:0]); err != nil {
		return nil, fmt.Errorf("reading request: %w", err)
	}
	var req wire.PlaceRequest
	if err := wire.DecodePlaceRequestJSON(*body, &req, sc); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	return req.Jobs, req.Validate(maxBatch)
}

// ReadOutcomeJSON is the same for POST /v1/outcome, a cold path that
// keeps encoding/json: the whole body is read first, so what follows the
// document is refused as it is on a place.
func ReadOutcomeJSON(w http.ResponseWriter, r *http.Request, maxBody int64, req *wire.OutcomeRequest) error {
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxBody), nil)
	if err != nil {
		return fmt.Errorf("reading request: %w", err)
	}
	if err := json.Unmarshal(body, req); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
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

// serveOutcome is the one outcome pipeline, behind both feedback
// transports: validate, apply to the serving controller (and hand to
// the attached learner and observer, if any), count, time, span. It
// returns 0, or the wire code and message the shell must refuse the
// outcome with; 0 means the controller has the outcome, which is
// what the shell's 204 or ack then tells the client. Like servePlace it
// begins the trace itself, after the shell's admission and decode: a
// sampled outcome that was shed or never parsed has no span worth a
// /tracez slot.
//
// Ownership: the serving core keeps nothing of the job, so a view that
// borrows its strings from a session's scratch (a frame's) is all it
// takes. The learner and the observer do keep jobs — a window of them,
// a heat entry keyed by template — so when either is attached, and only
// then, the pipeline takes the view's owned copy for them.
func (d *Daemon) serveOutcome(v *wire.OutcomeView, traceID uint64, start time.Time, wait time.Duration) (uint16, string) {
	d.hists.queueWait.RecordDuration(wait)
	b := d.tracer.Begin(traceID)
	defer b.Finish()
	b.Span("rpc.queue_wait", "", start, wait)
	if err := v.Validate(); err != nil {
		return wire.ErrCodeBadRequest, err.Error()
	}
	o := v.Outcome.Sim()
	if err := d.srv.Observe(v.Job, o); err != nil {
		return wire.ErrCodeServer, err.Error()
	}
	if d.cfg.Learner != nil || d.cfg.OutcomeObserver != nil {
		j := v.Own()
		if d.cfg.Learner != nil {
			d.cfg.Learner.Observe(j, v.Category, o)
		}
		if d.cfg.OutcomeObserver != nil {
			d.cfg.OutcomeObserver.Observe(j, o)
		}
	}
	lat := time.Since(start)
	d.hists.outcome.RecordDuration(lat)
	b.Span("rpc.outcome", "", start, lat)
	return 0, ""
}

// handleOutcome is the HTTP shell of the outcome pipeline, serving POST
// /v1/outcome as JSON: the documented feedback API, for curl, JSON-codec
// and non-Go clients and the front's external endpoint.
func (d *Daemon) handleOutcome(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		d.methodNotAllowed(w)
		return
	}
	if !d.outcome.acquire(r.Context()) {
		d.fail(w, wire.ErrCodeOverloaded, shedMessage)
		return
	}
	defer d.outcome.release()
	wait := time.Since(start)
	var req wire.OutcomeRequest
	if err := ReadOutcomeJSON(w, r, d.cfg.MaxBodyBytes, &req); err != nil {
		d.fail(w, wire.ErrCodeBadRequest, err.Error())
		return
	}
	v := req.View()
	if code, msg := d.serveOutcome(&v, wire.TraceIDFromHeader(r.Header), start, wait); code != 0 {
		d.fail(w, code, msg)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleModel serves GET /v1/model: active-model metadata plus the
// client-side binning schema.
func (d *Daemon) handleModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		d.methodNotAllowed(w)
		return
	}
	d.counters.modelRequests.Add(1)
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
	d.streamMu.Lock()
	streamsOpen := len(d.streamConns)
	d.streamMu.Unlock()
	v := &varzData{
		info:        d.modelInfo(),
		proc:        obs.CollectProc(d.start),
		srv:         d.srv.Stats(),
		streamsOpen: streamsOpen,
		placeJSON:   d.hists.placeJSON.Snapshot(),
		placeBinary: d.hists.placeBinary.Snapshot(),
		outcome:     d.hists.outcome.Snapshot(),
		queueWait:   d.hists.queueWait.Snapshot(),
		batchLat:    d.srv.BatchLatency(),
		queueDepth:  d.srv.QueueDepth(),
	}
	v.rpc = d.stats(&v.placeJSON, &v.placeBinary, &v.outcome)
	v.modelBytes = d.srv.ResidentBytes()
	v.act = d.srv.ACT()
	v.reg = d.reg.Residency()
	if d.cfg.Learner != nil {
		s := d.cfg.Learner.Stats()
		v.onl = &s
	}
	writeVarz(w, v)
}

// handleStream serves POST /v1/stream: the persistent binary streaming
// mode. The daemon hijacks the connection, answers 101 Switching
// Protocols, and then speaks length-prefixed frames in both directions
// (serveStream) until the client closes or the daemon drains. Each
// incoming frame takes an admission slot of its kind, so streams share
// the same overload envelope as request/response traffic.
func (d *Daemon) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		d.methodNotAllowed(w)
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		d.fail(w, wire.ErrCodeServer, "rpc: transport does not support streaming")
		return
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		d.fail(w, wire.ErrCodeServer, fmt.Sprintf("rpc: hijack: %v", err))
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
	d.counters.streamSessions.Add(1)
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

// outcomeAck is the one frame that answers every served outcome frame.
var outcomeAck = wire.AppendOutcomeAckFrame(nil)

// serveStream is the stream shell of both pipelines: one session's
// frame loop, run on the hijacked handler goroutine with pooled
// scratch. Read a frame, decode it by its type, take a slot — a place
// request a place slot, an outcome request an outcome slot, so neither
// kind of traffic can starve the other on a stream any more than over
// HTTP — run the pipeline, write the response, ack or error frame,
// repeat. Replies are written in frame order, so clients may pipeline
// requests without waiting. A refused frame (bad payload, shed, stale
// version) answers with an error frame and keeps the session alive —
// framing stays intact; transport errors end the session.
func (d *Daemon) serveStream(conn net.Conn, rw *bufio.ReadWriter) {
	defer d.dropStream(conn)
	sc := d.scratch.Get().(*placeScratch)
	defer d.scratch.Put(sc)
	for {
		// A session idles here between frames, parked in a client's idle
		// list for as long as it likes; the request's clock starts when
		// its first byte is in, or latency and queue wait would measure
		// the client's think time.
		_, err := rw.Reader.Peek(1)
		start := time.Now()
		var ft wire.FrameType
		var payload []byte
		if err == nil {
			ft, sc.body, payload, err = wire.ReadFrame(rw.Reader, sc.body, int(d.cfg.MaxBodyBytes))
		}
		if err != nil {
			// A drain expires the blocked read of every idle session, and
			// clients park sessions between outcomes: that is no one's bad
			// request. Otherwise framing is unrecoverable: report
			// best-effort, close.
			if err != io.EOF && !d.draining.Load() {
				_ = d.failFrame(rw, wire.ErrCodeBadRequest, err.Error())
			}
			return
		}
		code, msg := wire.ErrCodeBadRequest, ""
		var out []byte
		switch ft {
		case wire.FramePlaceRequest:
			if err := wire.DecodePlaceRequest(payload, &sc.breq, d.cfg.MaxBatch); err != nil {
				msg = err.Error()
			} else if !d.place.acquire(context.Background()) {
				code, msg = wire.ErrCodeOverloaded, shedMessage
			} else {
				code, msg = d.servePlace(sc, placeCall{via: viaStream, traceID: sc.breq.TraceID, start: start, wait: time.Since(start)})
				d.place.release()
				out = sc.out
			}
		case wire.FrameOutcomeRequest:
			if traceID, err := wire.DecodeOutcomeView(payload, &sc.job, &sc.outcome); err != nil {
				msg = err.Error()
			} else if !d.outcome.acquire(context.Background()) {
				code, msg = wire.ErrCodeOverloaded, shedMessage
			} else {
				code, msg = d.serveOutcome(&sc.outcome, traceID, start, time.Since(start))
				d.outcome.release()
				out = outcomeAck
			}
		default:
			msg = fmt.Sprintf("wire: frame type %d is not a request", ft)
		}
		if code != 0 {
			err = d.failFrame(rw, code, msg)
		} else if _, err = rw.Write(out); err == nil {
			err = rw.Flush()
		}
		if err != nil {
			return
		}
	}
}

const shedMessage = "overloaded: in-flight limit reached past queue deadline"

// httpStatus is the one wire code → HTTP status table (documented in
// package wire).
var httpStatus = [...]int{
	wire.ErrCodeBadRequest:   http.StatusBadRequest,
	wire.ErrCodeOverloaded:   http.StatusTooManyRequests,
	wire.ErrCodeModelVersion: http.StatusConflict,
	wire.ErrCodeServer:       http.StatusServiceUnavailable,
}

// countRefusal counts one refused request under its wire code, on
// either transport. A stale model version is the client's to fix, so it
// counts with the bad requests.
func (d *Daemon) countRefusal(code uint16) {
	switch code {
	case wire.ErrCodeOverloaded:
		d.counters.shed.Add(1)
	case wire.ErrCodeServer:
		d.counters.serverErrors.Add(1)
	default:
		d.counters.badRequests.Add(1)
	}
}

// fail refuses an HTTP request with a wire code, at the code's status.
func (d *Daemon) fail(w http.ResponseWriter, code uint16, msg string) {
	d.failStatus(w, httpStatus[code], code, msg)
}

// failStatus counts a refusal and answers it with the JSON ErrorResponse.
func (d *Daemon) failStatus(w http.ResponseWriter, status int, code uint16, msg string) {
	d.countRefusal(code)
	if code == wire.ErrCodeOverloaded {
		// Guidance for stock HTTP clients; rpc.Client uses its own finer
		// backoff. Retry-After takes whole seconds, so 1 is the minimum
		// honest value.
		w.Header().Set("Retry-After", "1")
	}
	d.writeJSON(w, status, wire.ErrorResponse{Error: msg})
}

// failFrame counts a refusal and answers it with an error frame on a
// stream session.
func (d *Daemon) failFrame(rw *bufio.ReadWriter, code uint16, msg string) error {
	d.countRefusal(code)
	if _, err := rw.Write(wire.AppendErrorFrame(nil, code, msg)); err != nil {
		return err
	}
	return rw.Flush()
}

func (d *Daemon) methodNotAllowed(w http.ResponseWriter) {
	d.failStatus(w, http.StatusMethodNotAllowed, wire.ErrCodeBadRequest, "method not allowed")
}

func (d *Daemon) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", wire.ContentTypeJSON)
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
