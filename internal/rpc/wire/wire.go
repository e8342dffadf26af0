// Package wire defines the versioned protocol between placement clients
// and the placement daemon (internal/rpc), on two transports. JSON over
// HTTP is the documented API — curl, non-Go clients, the front's
// external face — and its request unit is the trace.Job, the same JSON
// shape the trace files use, so any producer of trace JSONL can speak
// the protocol directly. Binary frames (binary.go) carry jobs as
// pre-binned feature vectors for the zero-feature-work hot path and
// travel only on /v1/stream sessions, between this repo's Go client and
// daemon. Every daemon speaks frames and ships the bin schema they need
// in /v1/model; a client that holds the schema sends place frames,
// trace IDs in them and outcome frames. Client and daemon are built from
// one tree: nothing here is kept for daemons older than the client.
//
// Endpoints (all under the /v1 prefix; see PathPlace etc.):
//
//	POST /v1/place    PlaceRequest  -> PlaceResponse   (JSON; single or batch)
//	POST /v1/outcome  OutcomeRequest -> 204 No Content  (JSON; feedback)
//	GET  /v1/model    -> ModelInfo                      (active version)
//	POST /v1/stream   -> 101, then frames both ways     (binary only)
//
// Every binary frame has one 12-byte header (binary.go) and one of five
// types:
//
//	1  FramePlaceRequest    client -> daemon
//	2  FramePlaceResponse   daemon -> client  answers a place request
//	3  FrameError           daemon -> client  refuses any request
//	4  FrameOutcomeRequest  client -> daemon
//	5  FrameOutcomeAck      daemon -> client  answers an outcome; empty
//
// An outcome-request payload carries the whole OutcomeRequest (a
// daemon's learner keeps the job for retraining and its heat tracker
// keys on the template, so a digest would not do). The daemon decodes it
// in place (DecodeOutcomeView: numerics into the session's scratch job,
// the strings left in the frame buffer, no allocation), which is all
// its serving core needs now that serve.Observe applies an outcome
// before it returns and keeps nothing; only a daemon with a learner or
// an observer attached takes an owned copy (OutcomeView.Own: the job and
// one string holding its ten string fields):
//
//	u16 flags (bit 0 = trace ID follows; the rest reserved, rejected)
//	[u64 trace ID, present iff flags bit 0]
//	i64 category | u8 wanted_ssd (0 or 1)
//	f64 frac_on_ssd | f64 spilled_at | f64 evicted_at
//	every numeric field of trace.Job in declaration order, floats as
//	float64 bits and ints as i64: 7 job floats, 8 Resources ints,
//	4 History floats, History.NumRuns
//	10 x u32 string length: id, cluster, user, pipeline, step, then
//	Meta's build target, execution, pipeline, step and user names
//	the string bytes, back to back, nothing after them
//
// String lengths are bounded by the frame payload cap alone, so the
// frame path refuses no job the JSON path accepts. The floats travel as
// their bits, NaN and infinities included, which JSON cannot spell; the
// codec carries them and OutcomeRequest.Validate, run by the daemon's
// pipeline on both paths, refuses every non-finite one. Outcome frames are the
// feedback path of binary-codec Go clients against daemons whose
// /v1/model says binary. POST /v1/outcome with a JSON OutcomeRequest
// remains the documented HTTP API for feedback: it is what curl,
// JSON-codec and non-Go clients and the front's external endpoint speak,
// and both reach one pipeline in the daemon. A router and its nodes speak
// nothing else on the data path: every routed place and every routed
// outcome is one frame exchange on a stream session the node's client
// keeps pooled (rpc.Client.Place, rpc.Client.Observe).
//
// JSON codec. The two place documents, PlaceRequest and PlaceResponse,
// are written and read by one hand-written codec (json.go) on every
// serving path: the daemon's and placementfront's POST /v1/place and
// rpc.Client's JSON branch. The two types deliberately have no
// MarshalJSON or UnmarshalJSON: encoding/json wraps such methods in
// three passes of its scanner (compact on the way out, checkValid and
// skip on the way in), which costs more than its own reflection saves,
// so a caller that hands them to encoding/json gets reflection, the same
// bytes and the same values. Grammar: the decoders accept and refuse
// exactly what json.Unmarshal into the same structs does, and decode to
// the same value: unknown keys are
// skipped (their values still checked), keys match exactly or under
// Unicode case folding, a repeated key decodes again into the same field
// (the last scalar wins, nested objects merge, a second "jobs" array
// decodes into the first one's elements), null leaves a field as it is,
// escapes and surrogate pairs are read as encoding/json reads them with
// U+FFFD for a lone surrogate and for each byte of invalid UTF-8,
// integer fields refuse 1.0, 1e3 and anything past int64, floats refuse
// what overflows float64, nesting is limited to 10,000 levels.
// Trailing data: nothing but white space may follow the document. This
// is json.Unmarshal's rule; the HTTP handlers used json.Decoder.Decode,
// which stops after the first value, so `{"jobs":[…]} garbage` and two
// concatenated documents, accepted until this codec, are a 400
// ErrCodeBadRequest on /v1/place and /v1/outcome, at the daemon and at
// the front. String ownership: DecodePlaceRequestJSON decodes into a
// caller-owned JSONScratch (pooled by the daemon and the front), whose
// trace.Job structs the next decode overwrites; every string of a
// request is a substring of one string allocated by that decode, never
// a view of the body or of the scratch, so a copied Job, and a decision's
// JobID, stay valid for as long as anything holds them. A decoded
// response shares each job_id with the request job it answers when they
// are equal. Encoding appends into the caller's buffer and writes,
// byte for byte, what json.Marshal writes for the structs (declaration
// order, HTML-safe escaping, its float spelling); NaN and the infinities
// are refused, as json.Marshal refuses them. FuzzPlaceJSON holds all of
// it against encoding/json on method-less copies of the types. The cold single documents (ModelInfo,
// ErrorResponse, OutcomeRequest) stay on encoding/json.
//
// Every refusal carries exactly one of four codes (ErrCode*), written
// as an error frame on a stream and as an ErrorResponse body over HTTP,
// where the code also picks the status:
//
//	ErrCodeBadRequest    400  the request itself is wrong; resending it
//	                          anywhere fails the same way
//	ErrCodeOverloaded    429  shed by admission control (Retry-After: 1)
//	ErrCodeModelVersion  409  rows binned against a retired model;
//	                          re-fetch /v1/model, re-bin, resend
//	ErrCodeServer        503  the daemon failed
//
// Two bad-request refusals keep the more specific HTTP status a stock
// client expects: 405 (wrong method) and 415 (a frame posted to
// /v1/place; frames travel on /v1/stream).
// The JSON documents external clients read (PlaceRequest, PlaceResponse,
// OutcomeRequest, ErrorResponse and ModelInfo's model fields) are the
// compatibility surface: their fields are only ever added, never renamed
// or repurposed, within a protocol version. Frame capabilities follow the
// one-tree rule above and are not advertised.
package wire

import (
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro/internal/features"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Version is the protocol version the paths below implement.
const Version = "v1"

// Endpoint paths.
const (
	PathPlace   = "/v1/place"
	PathOutcome = "/v1/outcome"
	PathModel   = "/v1/model"
	PathStream  = "/v1/stream"
	PathHealth  = "/healthz"
	PathVarz    = "/varz"
	PathTracez  = "/tracez"
)

// TraceHeader carries a sampled request's trace ID (16 hex digits) on
// the JSON paths. A server that does not trace ignores it — headers are
// the extensible part of the JSON codec — so the header needs no
// negotiation.
const TraceHeader = "X-Byom-Trace-Id"

// TraceIDFromHeader parses a propagated trace ID. An absent or
// malformed header yields 0: tracing is best-effort and never fails a
// request.
func TraceIDFromHeader(h http.Header) uint64 {
	v := h.Get(TraceHeader)
	if v == "" {
		return 0 // the common case; ParseUint would allocate its error
	}
	id, err := strconv.ParseUint(v, 16, 64)
	if err != nil {
		return 0
	}
	return id
}

// PlaceRequest asks for placement decisions for one or more jobs.
// Decisions are returned in request order.
type PlaceRequest struct {
	Jobs []*trace.Job `json:"jobs"`
}

// Validate rejects requests the daemon must not route to a shard:
// empty batches and jobs that fail trace validation (the same checks
// the trace loader applies).
func (r *PlaceRequest) Validate(maxBatch int) error {
	if len(r.Jobs) == 0 {
		return fmt.Errorf("wire: place request has no jobs")
	}
	if maxBatch > 0 && len(r.Jobs) > maxBatch {
		return fmt.Errorf("wire: place request has %d jobs, limit is %d", len(r.Jobs), maxBatch)
	}
	for i, j := range r.Jobs {
		if j == nil {
			return fmt.Errorf("wire: job %d is null", i)
		}
		if err := j.Validate(); err != nil {
			return fmt.Errorf("wire: job %d: %w", i, err)
		}
	}
	return nil
}

// Decision is one served placement verdict, mirroring serve.Decision
// with the job ID echoed so batch responses are self-describing.
type Decision struct {
	// JobID echoes the request job's ID.
	JobID string `json:"job_id"`
	// Admit is true when the job should be placed on SSD.
	Admit bool `json:"admit"`
	// Category is the model's predicted importance category.
	Category int `json:"category"`
	// ModelVersion is the registry version that produced Category.
	ModelVersion int `json:"model_version"`
	// Shard is the serving queue that carried the job; the decision
	// does not depend on it.
	Shard int `json:"shard"`
}

// PlaceResponse carries the decisions for a PlaceRequest, in request
// order (Decisions[i] answers Jobs[i]).
type PlaceResponse struct {
	Decisions []Decision `json:"decisions"`
}

// Outcome reports how a placement played out — the spillover feedback
// Algorithm 1 regulates on (mirrors sim.Outcome with stable JSON tags).
type Outcome struct {
	// WantedSSD is the decision the client acted on.
	WantedSSD bool `json:"wanted_ssd"`
	// FracOnSSD is the byte fraction that stayed on SSD.
	FracOnSSD float64 `json:"frac_on_ssd"`
	// SpilledAt is the absolute time spillover began, or -1.
	SpilledAt float64 `json:"spilled_at"`
	// EvictedAt is the absolute eviction time, or -1.
	EvictedAt float64 `json:"evicted_at"`
}

// OutcomeOf is the wire form of a simulator outcome. The two structs
// differ only in their JSON tags, so these are type conversions, and
// they stop compiling if the field sets ever drift apart.
func OutcomeOf(o sim.Outcome) Outcome { return Outcome(o) }

// Sim is the simulator form of a wire outcome.
func (o Outcome) Sim() sim.Outcome { return sim.Outcome(o) }

// OutcomeRequest feeds one job's outcome back to the daemon's controller.
// Category echoes the Decision.Category the client acted on, so a
// learner attached to the daemon can attribute the outcome to the
// model's prediction.
type OutcomeRequest struct {
	Job      *trace.Job `json:"job"`
	Category int        `json:"category"`
	Outcome  Outcome    `json:"outcome"`
}

// Validate rejects feedback the controller cannot attribute.
func (r *OutcomeRequest) Validate() error {
	j := r.Job
	if j == nil {
		return fmt.Errorf("wire: outcome request has no job")
	}
	if err := j.Validate(); err != nil {
		return fmt.Errorf("wire: outcome job: %w", err)
	}
	// Range checks alone let NaN through (both comparisons are false
	// for NaN), trace validation has no upper bounds, and a frame carries
	// float bits as they are, where JSON cannot spell a non-finite number.
	// One such value would poison every learner window and heat
	// accumulator downstream — reject them all first.
	h := &j.History
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"frac_on_ssd", r.Outcome.FracOnSSD}, {"spilled_at", r.Outcome.SpilledAt}, {"evicted_at", r.Outcome.EvictedAt},
		{"job arrival_sec", j.ArrivalSec}, {"job lifetime_sec", j.LifetimeSec}, {"job size_bytes", j.SizeBytes},
		{"job read_bytes", j.ReadBytes}, {"job write_bytes", j.WriteBytes},
		{"job avg_read_size_bytes", j.AvgReadSizeBytes}, {"job cache_hit_frac", j.CacheHitFrac},
		{"job history avg_tcio", h.AvgTCIO}, {"job history avg_size_bytes", h.AvgSizeBytes},
		{"job history avg_lifetime_sec", h.AvgLifetime}, {"job history avg_io_density", h.AvgIODensity},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("wire: outcome %s %g is not finite", f.name, f.v)
		}
	}
	if r.Outcome.FracOnSSD < 0 || r.Outcome.FracOnSSD > 1 {
		return fmt.Errorf("wire: outcome frac_on_ssd %g outside [0,1]", r.Outcome.FracOnSSD)
	}
	return nil
}

// ModelInfo describes the daemon's active model and serving shape.
type ModelInfo struct {
	// Workload is the registry namespace the daemon resolves.
	Workload string `json:"workload"`
	// ModelVersion is the active registry version number.
	ModelVersion int `json:"model_version"`
	// NumCategories is the model's importance-category count.
	NumCategories int `json:"num_categories"`
	// Shards is the daemon's serving-queue count; decisions do not
	// depend on it.
	Shards int `json:"shards"`
	// Swaps counts hot-swaps applied since the daemon started.
	Swaps int64 `json:"swaps"`

	// NumFeatures is the feature-row width of the active model; binary
	// place requests must carry exactly this many bins per row.
	NumFeatures int `json:"num_features,omitempty"`
	// BinEdges / BinCards describe the active model's lossless
	// quantization (features.Binner): per-feature sorted numeric split
	// thresholds, and per-feature categorical cardinality (0 for
	// numeric). They are pinned to ModelVersion — after a hot swap the
	// daemon rejects rows binned against stale edges and the client
	// must re-fetch.
	BinEdges [][]float64 `json:"bin_edges,omitempty"`
	BinCards []int       `json:"bin_cards,omitempty"`
	// Encoder is the active model's feature encoder (its vocabularies),
	// shipped so clients can extract and bin feature rows locally and
	// keep the daemon's hot path free of per-job feature work.
	Encoder *features.Encoder `json:"encoder,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
