package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptrace"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rpc/wire"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Codec names for ClientConfig.Codec.
const (
	// CodecJSON selects the JSON request/response codec (the default).
	CodecJSON = "json"
	// CodecBinary selects the binary frame codec with client-side
	// feature extraction and pre-binning: places and outcomes travel as
	// frames on stream sessions the client keeps pooled. The client
	// fetches the bin schema from /v1/model once (and again after each
	// hot swap), and speaks JSON for good if the daemon doesn't advertise
	// binary. Sessions dial plain TCP, so the codec needs an http://
	// BaseURL.
	CodecBinary = "binary"
)

// ClientConfig tunes a placement client.
type ClientConfig struct {
	// BaseURL is the daemon's root URL, e.g. "http://10.0.0.7:7070".
	BaseURL string
	// Codec picks the place codec: CodecJSON (default) or CodecBinary.
	Codec string
	// RequestTimeout is the per-request deadline, applied per attempt
	// on top of any caller context (default 2 s).
	RequestTimeout time.Duration
	// MaxRetries bounds re-sends after a shed (429) response; other
	// failures are returned immediately (default 3).
	MaxRetries int
	// RetryBackoff is the first retry's base sleep; it doubles per
	// retry (default 2 ms). Every sleep is jittered into [base/2, base)
	// by a seeded PRNG, so a fleet of clients shed by the same overload
	// burst desynchronizes instead of retrying in lockstep.
	RetryBackoff time.Duration
	// JitterSeed seeds the retry-jitter PRNG. 0 (the default) derives a
	// unique per-client seed, so concurrent clients jitter
	// independently; tests pin a nonzero seed for reproducible sleeps.
	JitterSeed uint64
}

// DefaultClientConfig returns client parameters for a daemon at
// baseURL: 2 s deadlines, 3 shed retries with 2 ms doubling backoff.
func DefaultClientConfig(baseURL string) ClientConfig {
	return ClientConfig{
		BaseURL:        baseURL,
		RequestTimeout: 2 * time.Second,
		MaxRetries:     3,
		RetryBackoff:   2 * time.Millisecond,
	}
}

// ClientStats counts a client's request outcomes, in /varz order
// (obs.WriteVars).
type ClientStats struct {
	// Requests counts logical operations (not retry attempts).
	Requests int64 `varz:"requests"`
	// Sheds counts 429 responses received (each may trigger a retry).
	Sheds int64 `varz:"sheds"`
	// Retries counts re-sent attempts after a shed.
	Retries int64 `varz:"retries"`
	// Failures counts operations that returned an error to the caller.
	Failures int64 `varz:"failures"`
}

// Client speaks the wire protocol to one placement daemon, reusing
// connections across requests. All methods are safe for concurrent
// use; a single Client is meant to be shared by many goroutines.
type Client struct {
	cfg      ClientConfig
	rt       *http.Transport          // JSON requests, by bare RoundTrip: the daemon never redirects
	reqs     map[string]*http.Request // by path, read-only: what each attempt copies
	requests atomic.Int64
	sheds    atomic.Int64
	retries  atomic.Int64
	failures atomic.Int64

	// Binary-codec state: the model's bin schema + encoder, pinned to a
	// version and refreshed on a stale-version refusal; scratch pools the
	// buffers of a JSON call (a frame call uses its session's).
	binState atomic.Pointer[clientBinState]
	scratch  sync.Pool

	// idle holds the stream sessions Place and Observe frames travel on,
	// between uses (see onSession); idleClosed makes Close final.
	idleMu     sync.Mutex
	idle       []*StreamSession
	idleClosed bool

	// jitter drives the retry-backoff jitter; guarded by jitterMu so
	// concurrent retriers draw independent offsets.
	jitterMu sync.Mutex
	jitter   *rand.Rand
}

// clientSeq distinguishes the derived jitter seeds of clients created
// in the same nanosecond.
var clientSeq atomic.Uint64

// NewClient builds a client for the daemon at cfg.BaseURL.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("rpc: client needs a BaseURL")
	}
	if !strings.HasPrefix(cfg.BaseURL, "http://") && !strings.HasPrefix(cfg.BaseURL, "https://") {
		return nil, fmt.Errorf("rpc: BaseURL %q must start with http:// or https://", cfg.BaseURL)
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("rpc: MaxRetries must be >= 0, got %d", cfg.MaxRetries)
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 2 * time.Millisecond
	}
	switch cfg.Codec {
	case "", CodecJSON:
	case CodecBinary:
		if !strings.HasPrefix(cfg.BaseURL, "http://") {
			return nil, fmt.Errorf("rpc: codec %q sends frames on plain-TCP stream sessions and needs an http:// BaseURL, got %q; use %q", CodecBinary, cfg.BaseURL, CodecJSON)
		}
	default:
		return nil, fmt.Errorf("rpc: unknown codec %q (want %q or %q)", cfg.Codec, CodecJSON, CodecBinary)
	}
	// One request per JSON path, parsed once: exchange copies it per
	// attempt and never parses a URL again.
	reqs := make(map[string]*http.Request, 3)
	for _, path := range []string{wire.PathPlace, wire.PathOutcome, wire.PathModel} {
		req, err := http.NewRequest(http.MethodGet, cfg.BaseURL+path, nil)
		if err != nil {
			return nil, fmt.Errorf("rpc: BaseURL %q: %w", cfg.BaseURL, err)
		}
		req.Header = noHeader
		reqs[path] = req
	}
	// The stdlib default of 2 idle conns per host forces reconnects
	// under any real concurrency; size for loadgen-scale fan-in. The
	// daemon never compresses, so asking for gzip buys nothing.
	rt := &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	if cfg.Codec != CodecBinary {
		// A 64-job place body (the default batch of cmd/loadgen and of
		// the benchmark's json-paper workload) is 65.6–66.3 KB. Behind
		// the default 4 KiB buffer, the body's rest goes to
		// TCPConn.ReadFrom, whose io.Copy allocates 32 KiB per request;
		// in one buffer it leaves in one write. A binary-codec client
		// sends only the /v1/model GET this way.
		rt.WriteBufferSize = 128 << 10
	}
	c := &Client{cfg: cfg, rt: rt, reqs: reqs}
	c.scratch.New = func() any { return &clientScratch{} }
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano()) ^ clientSeq.Add(1)<<32
	}
	c.jitter = rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	return c, nil
}

// jitterBackoff maps a base backoff to a uniformly jittered sleep in
// [base/2, base): retries keep their doubling envelope, but two clients
// shed by the same burst reschedule at different instants.
func (c *Client) jitterBackoff(base time.Duration) time.Duration {
	half := base / 2
	if half <= 0 {
		return base
	}
	c.jitterMu.Lock()
	j := c.jitter.Int64N(int64(half))
	c.jitterMu.Unlock()
	return half + time.Duration(j)
}

// sleepBackoff sleeps one jittered backoff step and doubles the base
// for the next retry (capped at 1 s). It returns ctx.Err() when the
// caller's context ends first.
func (c *Client) sleepBackoff(ctx context.Context, backoff *time.Duration) error {
	select {
	case <-time.After(c.jitterBackoff(*backoff)):
	case <-ctx.Done():
		return ctx.Err()
	}
	if *backoff < time.Second {
		*backoff *= 2
	}
	return nil
}

// Error is a final refusal of one operation: the wire code it was
// refused with (wire.ErrCode*), the HTTP status that carried the code
// (0 on a stream, and when the client itself rejected the request
// before sending it) and the daemon's message. Sheds and stale bin
// schemas surface only once the client's retries are spent. Match with
// errors.As: Code == wire.ErrCodeBadRequest means the request itself is
// wrong and would fail the same way on any node.
type Error struct {
	Op      string
	Code    uint16
	Status  int
	Message string
}

func (e *Error) Error() string {
	return fmt.Sprintf("rpc: %s: %s (code %d, status %d)", e.Op, e.Message, e.Code, e.Status)
}

// count closes one logical operation's accounting.
func (c *Client) count(err error) error {
	if err != nil {
		c.failures.Add(1)
	}
	return err
}

// Place requests decisions for a batch of jobs, in order. A binary-codec
// client sends the batch as one frame exchange on a stream session from
// its idle list once it holds the daemon's bin schema, with the checks,
// the retry loop and the decisions of StreamSession.Place; every other
// pairing (JSON codec, a model fetch that failed) posts JSON to
// /v1/place.
// On a session the lost-connection rule is onSession's: one that died
// while parked re-sends once, a timeout or a garbled reply is returned.
//
// RequestTimeout bounds each attempt. A context deadline does too, but a
// bare cancellation does not interrupt a frame exchange in flight, as it
// does a JSON request: a cancelled context is seen before the first
// attempt (Place returns ctx.Err() without dialling), between attempts
// and in a backoff sleep.
func (c *Client) Place(ctx context.Context, jobs []*trace.Job) ([]wire.Decision, error) {
	return c.AppendPlace(ctx, nil, jobs)
}

// AppendPlace is Place appending to dst, as strconv.AppendInt does (dst
// as it came on an error). The caller owns dst: reused, it spares the
// answer's allocation and holds the jobs' IDs until the caller clears it.
func (c *Client) AppendPlace(ctx context.Context, dst []wire.Decision, jobs []*trace.Job) (out []wire.Decision, err error) {
	c.requests.Add(1)
	if err := ctx.Err(); err != nil {
		return dst, c.count(err)
	}
	out = dst
	if st := c.frameState(ctx); st != nil {
		err = c.onSession(ctx, func(s *StreamSession) (err error) {
			out, err = c.placeFrames(ctx, s, st, dst, jobs)
			return err
		})
	} else {
		out, err = c.placeJSON(ctx, dst, jobs)
	}
	return out, c.count(err)
}

// placeJSON is AppendPlace as one JSON document each way, written and
// read by the wire codec in the call's pooled scratch.
func (c *Client) placeJSON(ctx context.Context, dst []wire.Decision, jobs []*trace.Job) ([]wire.Decision, error) {
	sc := c.scratch.Get().(*clientScratch)
	defer c.scratch.Put(sc)
	var err error
	if sc.frame, err = wire.AppendPlaceRequestJSON(sc.frame[:0], jobs); err != nil {
		return dst, fmt.Errorf("rpc: encoding request: %w", err)
	}
	if err := c.run(ctx, nil, operation{method: http.MethodPost, path: wire.PathPlace}, sc, nil); err != nil {
		return dst, err
	}
	// Decode into dst's spare capacity, grown by one allocation at most.
	out := slices.Grow(dst, len(jobs))
	resp := wire.PlaceResponse{Decisions: out[len(dst):]}
	if err := wire.DecodePlaceResponseJSON(sc.body, &resp, jobs); err != nil {
		return dst, fmt.Errorf("rpc: decoding response: %w", err)
	}
	if len(resp.Decisions) != len(jobs) {
		return dst, fmt.Errorf("rpc: got %d decisions for %d jobs", len(resp.Decisions), len(jobs))
	}
	return append(out, resp.Decisions...), nil
}

// PlaceOne requests a decision for a single job.
func (c *Client) PlaceOne(ctx context.Context, j *trace.Job) (wire.Decision, error) {
	ds, err := c.Place(ctx, []*trace.Job{j})
	if err != nil {
		return wire.Decision{}, err
	}
	return ds[0], nil
}

// frameState is the capability rule Place and Observe share: the
// daemon's schema when this client sends it frames on pooled sessions
// (binary codec, a /v1/model fetched on first use and again on a
// stale-version refusal), nil otherwise. A model fetch that failed (a
// placementfront has no /v1/model) leaves the schema unknown, and the
// JSON form of a request serves every server: the operation at hand
// goes that way, and the next one fetches again.
func (c *Client) frameState(ctx context.Context) *clientBinState {
	if c.cfg.Codec != CodecBinary {
		return nil
	}
	st, err := c.binaryState(ctx)
	if err != nil {
		return nil
	}
	return st
}

// Observe reports a placement outcome back to the daemon. category is
// the Decision.Category the placement acted on. A binary-codec client
// sends it as a frame on a pooled stream session once it holds the
// daemon's bin schema; every other pairing (JSON codec, a model fetch
// that failed) posts JSON to /v1/outcome. On a session, a
// connection that died while parked re-sends the outcome once and no
// other failure does: see onSession.
//
// A nil return means applied, not queued: the daemon writes its ack (or
// 204) after serve.Observe has updated the serving controller, so a
// Place sent after Observe returns is decided with this outcome, and the
// daemon's observation count already includes it.
func (c *Client) Observe(ctx context.Context, j *trace.Job, category int, o sim.Outcome) error {
	c.requests.Add(1)
	req := wire.OutcomeRequest{Job: j, Category: category, Outcome: wire.OutcomeOf(o)}
	if c.frameState(ctx) != nil {
		return c.count(c.observeFrames(ctx, &req))
	}
	return c.count(c.call(ctx, http.MethodPost, wire.PathOutcome, req, nil))
}

// maxIdleSessions caps the idle list. A session costs a connection, two
// 4 KiB buffers here and a parked goroutine on the daemon, and only as
// many are ever dialled as calls overlap. Places overlap up to the
// daemon's MaxInFlightPlace (64 by default) before it sheds them, and a
// session over the cap is closed when it comes back, so a lower cap
// would cost a busy front a dial and an upgrade handshake per request.
const maxIdleSessions = 64

// observeFrames sends one outcome as a frame on a pooled session. The
// checks are the ones the daemon applies, with the verdict
// encodeBinaryPlace gives a bad job: a bad request, not a failed node.
func (c *Client) observeFrames(ctx context.Context, req *wire.OutcomeRequest) error {
	if err := req.Validate(); err != nil {
		return &Error{Op: opOutcome.name, Code: wire.ErrCodeBadRequest, Message: err.Error()}
	}
	return c.onSession(ctx, func(s *StreamSession) (err error) {
		if s.sc.frame, err = wire.AppendOutcomeFrame(s.sc.frame[:0], obs.TraceID(ctx), req); err != nil {
			return err
		}
		return c.run(ctx, s, opOutcome, &s.sc, nil)
	})
}

// onSession is the one session loop, for both frame operations: do runs
// one operation (encode into the session's scratch, Client.run, copy the
// answer out) on a session that comes off the idle list, newest first,
// or is dialled, and that goes back unless it broke.
//
// A reused session may have died while idle (the daemon restarted, or
// closed it while draining), which only shows on use. When the failure
// shows exactly that (StreamSession.deadOnUse: the write failed, or the
// connection ended before one reply byte) the operation runs once more
// on a freshly dialled session, as http.Transport re-sends on a
// keep-alive connection the server closed. Any other break is final: a
// timeout or a garbled reply comes from a daemon that is alive and may
// well be serving the frame. For an outcome that matters: feeding the
// controller, learner and heat tracker the same outcome twice under the
// overload that caused the timeout is worse than the error. For a place
// it is the rule net/http applies to a POST, and the router reroutes the
// batch. The re-send cannot tell a frame that never arrived from one
// whose reply was lost with the connection, so it may still apply an
// outcome twice. That is harmless only in the case it exists for: a
// daemon that dropped its connections by dying has lost its in-memory
// controller state along with them. A fresh session that fails returns
// its error. (The router's re-post to the next owner after a lost ack
// is the same hazard one layer up, and stays open.)
func (c *Client) onSession(ctx context.Context, do func(*StreamSession) error) error {
	s := c.takeIdle()
	for {
		reused := s != nil
		if !reused {
			var err error
			if s, err = c.OpenStream(ctx); err != nil {
				return err
			}
		}
		err := do(s)
		if !s.broken {
			c.putIdle(s)
			return err
		}
		if !reused || !s.deadOnUse {
			return err
		}
		s = nil // died while parked: once more, on a fresh session
	}
}

// takeIdle pops the most recently used idle session, or returns nil.
func (c *Client) takeIdle() *StreamSession {
	c.idleMu.Lock()
	defer c.idleMu.Unlock()
	n := len(c.idle)
	if n == 0 {
		return nil
	}
	s := c.idle[n-1]
	c.idle[n-1] = nil // the list must not keep a session its taker drops
	c.idle = c.idle[:n-1]
	return s
}

// putIdle returns a working session to the idle list, or closes it when
// the list is full or the client closed.
func (c *Client) putIdle(s *StreamSession) {
	c.idleMu.Lock()
	if !c.idleClosed && len(c.idle) < maxIdleSessions {
		c.idle = append(c.idle, s)
		s = nil
	}
	c.idleMu.Unlock()
	if s != nil {
		_ = s.Close()
	}
}

// ModelInfo fetches the daemon's active-model metadata.
func (c *Client) ModelInfo(ctx context.Context) (wire.ModelInfo, error) {
	c.requests.Add(1)
	var info wire.ModelInfo
	err := c.call(ctx, http.MethodGet, wire.PathModel, nil, &info)
	return info, c.count(err)
}

// Stats returns the client's operation counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Requests: c.requests.Load(),
		Sheds:    c.sheds.Load(),
		Retries:  c.retries.Load(),
		Failures: c.failures.Load(),
	}
}

// Close releases idle connections and idle stream sessions. The client
// may not be used after.
func (c *Client) Close() {
	c.rt.CloseIdleConnections()
	c.idleMu.Lock()
	idle := c.idle
	c.idle, c.idleClosed = nil, true
	c.idleMu.Unlock()
	for _, s := range idle {
		_ = s.Close()
	}
}

// byteSink lets an encoder that wants an io.Writer append to a pooled
// byte slice.
type byteSink []byte

func (s *byteSink) Write(p []byte) (int, error) {
	*s = append(*s, p...)
	return len(p), nil
}

// call runs one JSON operation: marshal body (nil = none) once, drive
// it to its final verdict, decode the 2xx document into into (nil =
// none expected).
func (c *Client) call(ctx context.Context, method, path string, body, into any) error {
	sc := c.scratch.Get().(*clientScratch)
	defer c.scratch.Put(sc)
	sc.frame = sc.frame[:0]
	if body != nil {
		if err := json.NewEncoder((*byteSink)(&sc.frame)).Encode(body); err != nil {
			return fmt.Errorf("rpc: encoding request: %w", err)
		}
	}
	if err := c.run(ctx, nil, operation{method: method, path: path}, sc, nil); err != nil {
		return err
	}
	if into != nil {
		if err := json.Unmarshal(sc.body, into); err != nil {
			return fmt.Errorf("rpc: decoding response: %w", err)
		}
	}
	return nil
}

// operation is the shape of one operation on the transport it travels
// by: method and path as an HTTP request with a JSON body, or, as a frame
// on a stream session, the frame type that answers it and the name a
// refusal reports it by.
type operation struct {
	method, path string
	answer       wire.FrameType
	name         string
}

// The two operations that travel as frames.
var (
	opPlace   = operation{answer: wire.FramePlaceResponse, name: "place"}
	opOutcome = operation{answer: wire.FrameOutcomeAck, name: "outcome"}
)

// reply is the daemon's verdict on one attempt: wire code 0 with the
// answer in the call's scratch, or the code it refused with, its
// message and the HTTP status that carried them (0 on a stream).
type reply struct {
	code   uint16
	status int
	msg    string
}

// run is the one retry loop. It drives the request encoded in sc.frame
// to its final verdict, as a frame exchange on s or, when s is nil, as
// the HTTP request op. A shed backs off and re-sends, up to MaxRetries
// times; a stale-version refusal of a frame place (jobs is what
// sc.frame encodes) refreshes the bin schema and re-bins, at most
// twice, on a budget of its own, so publishes racing the retry cost no
// shed retries. Any other refusal is final and comes back as an *Error;
// transport failures come back as they are.
func (c *Client) run(ctx context.Context, s *StreamSession, op operation, sc *clientScratch, jobs []*trace.Job) error {
	backoff := c.cfg.RetryBackoff
	for swaps, sheds := 0, 0; ; {
		var rep reply
		var err error
		if s != nil {
			rep, err = s.exchange(ctx, op)
		} else {
			rep, err = c.exchange(ctx, op, sc)
		}
		switch {
		case err != nil:
			return err
		case rep.code == 0:
			return nil
		case rep.code == wire.ErrCodeModelVersion && jobs != nil && swaps < 2:
			swaps++
			st, err := c.refreshBinState(ctx)
			if err == nil && st == nil {
				err = errors.New("rpc: daemon stopped speaking binary mid-operation")
			}
			if err == nil {
				err = encodeBinaryPlace(st, jobs, obs.TraceID(ctx), sc)
			}
			if err != nil {
				return err
			}
			continue
		case rep.code == wire.ErrCodeModelVersion:
			rep.msg = fmt.Sprintf("model version still moving after %d refreshes: %s", swaps, rep.msg)
		case rep.code == wire.ErrCodeOverloaded:
			c.sheds.Add(1)
			if sheds < c.cfg.MaxRetries {
				sheds++
				if err := c.sleepBackoff(ctx, &backoff); err != nil {
					return err
				}
				c.retries.Add(1)
				continue
			}
			rep.msg = fmt.Sprintf("still shed after %d retries: %s", sheds, rep.msg)
		}
		what := op.method + " " + op.path
		if s != nil {
			what = "stream " + op.name
		}
		return &Error{Op: what, Code: rep.code, Status: rep.status, Message: rep.msg}
	}
}

// The headers every JSON request shares, read-only: net/http's
// transport writes its own headers aside and never into a request's.
var (
	jsonHeader = http.Header{"Content-Type": contentTypeJSON}
	noHeader   = http.Header{}
)

// exchange sends sc.frame as one HTTP request with a JSON body (or
// none) under the per-attempt deadline, reads the response into sc.body,
// where a 2xx document stays for the caller, and returns the daemon's
// verdict: a refusal is an ErrorResponse coded by its status. The
// request is a copy of the one NewClient parsed for op.path and its body
// is sc's requestBody, so of its own an attempt allocates only the copy,
// its deadline and the context that carries the body's trace.
func (c *Client) exchange(ctx context.Context, op operation, sc *clientScratch) (reply, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	var rb *requestBody
	if len(sc.frame) > 0 {
		if sc.req == nil {
			sc.req = newRequestBody()
		}
		rb = sc.req
		actx = rb.lend(actx, sc.frame)
		// Unless every write of the body has ended, the transport may
		// still read it and the frame: leave both to it, and go on with
		// a copy of the frame, which a shed retry re-sends.
		defer func() {
			if rb.unended.Load() != 0 {
				sc.frame, sc.req = slices.Clone(sc.frame), nil
			}
		}()
	}
	req := c.reqs[op.path].WithContext(actx)
	req.Method = op.method
	if rb != nil {
		req.Header = jsonHeader
		req.Body, req.GetBody, req.ContentLength = rb.body, rb.getBody, int64(len(sc.frame))
	}
	// Sampled requests carry their trace ID so the daemon's /tracez can
	// correlate its server-side spans with the caller's.
	if tid := obs.TraceID(ctx); tid != 0 {
		req.Header = req.Header.Clone()
		req.Header.Set(wire.TraceHeader, fmt.Sprintf("%016x", tid))
	}
	resp, err := c.rt.RoundTrip(req)
	if err != nil {
		return reply{}, fmt.Errorf("rpc: %w", err)
	}
	// Reading to EOF is what makes the connection reusable, and what
	// makes the transport settle the request's write: done, or given up
	// with the connection.
	defer resp.Body.Close()
	if sc.body, err = readBody(resp.Body, sc.body[:0]); err != nil {
		return reply{}, fmt.Errorf("rpc: reading response: %w", err)
	}
	rep := reply{status: resp.StatusCode}
	if rep.status/100 == 2 {
		return rep, nil
	}
	var e wire.ErrorResponse
	// Any other body (a proxy's error page, nothing at all) leaves the
	// status to speak alone.
	_ = json.Unmarshal(sc.body, &e)
	rep.code, rep.msg = wireCode(rep.status), e.Error
	if rep.msg == "" {
		rep.msg = http.StatusText(rep.status)
	}
	return rep, nil
}

// requestBody is a JSON request's body as net/http takes it, built once
// per scratch: a reader over the frame, the io.NopCloser of it that
// becomes Request.Body (a shape net/http knows is in memory, so it
// sends the headers and the body in one write) and a bound GetBody.
//
// A RoundTripper may go on reading a body after RoundTrip returns: a
// daemon that sheds before it reads answers while the body is still
// being written, and a timeout returns while the write is blocked. So
// unended counts the bodies handed out for an attempt (Body, and each
// GetBody a re-send on a dead keep-alive connection asks for) whose
// write has not ended, and the trace's WroteRequest, which net/http
// calls once the write of a body is over, counts them down. When
// exchange returns, a count above zero means the transport may not have
// finished with the frame, and the scratch leaves both to it.
type requestBody struct {
	frame   []byte // what the bodies read; fixed while they may be read
	reader  bytes.Reader
	body    io.ReadCloser
	getBody func() (io.ReadCloser, error)
	trace   httptrace.ClientTrace
	unended atomic.Int32
}

func newRequestBody() *requestBody {
	rb := &requestBody{}
	rb.body = io.NopCloser(&rb.reader)
	rb.getBody = func() (io.ReadCloser, error) {
		// A fresh reader: the write the re-send replaces may not have
		// let go of rb.reader yet.
		rb.unended.Add(1)
		return io.NopCloser(bytes.NewReader(rb.frame)), nil
	}
	rb.trace.WroteRequest = func(httptrace.WroteRequestInfo) { rb.unended.Add(-1) }
	return rb
}

// lend points rb at frame for one attempt and returns ctx with the
// trace that counts its writes.
func (rb *requestBody) lend(ctx context.Context, frame []byte) context.Context {
	rb.frame = frame
	rb.reader.Reset(frame)
	rb.unended.Add(1)
	t := &rb.trace
	if httptrace.ContextClientTrace(ctx) != nil {
		// WithClientTrace composes the caller's hooks into the trace it
		// is given: give it a copy.
		cp := rb.trace
		t = &cp
	}
	return httptrace.WithClientTrace(ctx, t)
}

// wireCode reads a refusal off its HTTP status: the inverse of the
// daemon's httpStatus table, with every other 4xx a bad request and
// anything else the server's fault.
func wireCode(status int) uint16 {
	switch {
	case status == http.StatusTooManyRequests:
		return wire.ErrCodeOverloaded
	case status == http.StatusConflict:
		return wire.ErrCodeModelVersion
	case status/100 == 4:
		return wire.ErrCodeBadRequest
	default:
		return wire.ErrCodeServer
	}
}
