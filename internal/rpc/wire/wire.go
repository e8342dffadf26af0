// Package wire defines the versioned protocol between placement clients
// and the placement daemon (internal/rpc), in two codecs negotiated via
// Accept/Content-Type: the JSON fallback, whose request unit is the
// trace.Job — the same JSON shape the trace files use, so any producer
// of trace JSONL can speak the protocol directly — and the binary frame
// codec (binary.go), which carries jobs as pre-binned feature vectors
// for the zero-feature-work hot path.
//
// Endpoints (all under the /v1 prefix; see PathPlace etc.):
//
//	POST /v1/place    PlaceRequest  -> PlaceResponse   (single or batch)
//	POST /v1/outcome  OutcomeRequest -> 204 No Content  (feedback)
//	GET  /v1/model    -> ModelInfo                      (active version)
//	POST /v1/stream   -> 101, then place frames both ways (binary only)
//
// Every refusal carries exactly one of four codes (ErrCode*), written
// as an error frame on a stream and to clients that accept the binary
// codec, and as an ErrorResponse body otherwise; over HTTP the code
// also picks the status:
//
//	ErrCodeBadRequest    400  the request itself is wrong; resending it
//	                          anywhere fails the same way
//	ErrCodeOverloaded    429  shed by admission control (Retry-After: 1)
//	ErrCodeModelVersion  409  rows binned against a retired model;
//	                          re-fetch /v1/model, re-bin, resend
//	ErrCodeServer        503  the daemon failed
//
// Three bad-request refusals keep the more specific HTTP status a stock
// client expects: 405 (wrong method), 415 (binary codec disabled) and
// 404 (streaming disabled).
// The types here are the compatibility surface: fields are only ever
// added, never renamed or repurposed, within a protocol version.
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
// the JSON paths. Daemons that predate tracing ignore it — headers are
// the extensible part of the JSON codec — so the header needs no
// negotiation, unlike the binary-frame trace field (ModelInfo.TraceIDs).
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
	// Shard is the admission shard that served the decision.
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

// OutcomeRequest feeds one job's outcome back to its admission shard.
// Category echoes the Decision.Category the client acted on, so a
// learner attached to the daemon can attribute the outcome to the
// model's prediction.
type OutcomeRequest struct {
	Job      *trace.Job `json:"job"`
	Category int        `json:"category"`
	Outcome  Outcome    `json:"outcome"`
}

// Validate rejects feedback the shard controllers cannot attribute.
func (r *OutcomeRequest) Validate() error {
	if r.Job == nil {
		return fmt.Errorf("wire: outcome request has no job")
	}
	if err := r.Job.Validate(); err != nil {
		return fmt.Errorf("wire: outcome job: %w", err)
	}
	// Range checks alone let NaN through (both comparisons are false
	// for NaN), and a NaN fraction would poison every learner window
	// and heat accumulator downstream — reject non-finite values first.
	if math.IsNaN(r.Outcome.FracOnSSD) || math.IsInf(r.Outcome.FracOnSSD, 0) {
		return fmt.Errorf("wire: outcome frac_on_ssd %g is not finite", r.Outcome.FracOnSSD)
	}
	if r.Outcome.FracOnSSD < 0 || r.Outcome.FracOnSSD > 1 {
		return fmt.Errorf("wire: outcome frac_on_ssd %g outside [0,1]", r.Outcome.FracOnSSD)
	}
	if math.IsNaN(r.Outcome.SpilledAt) || math.IsInf(r.Outcome.SpilledAt, 0) {
		return fmt.Errorf("wire: outcome spilled_at %g is not finite", r.Outcome.SpilledAt)
	}
	if math.IsNaN(r.Outcome.EvictedAt) || math.IsInf(r.Outcome.EvictedAt, 0) {
		return fmt.Errorf("wire: outcome evicted_at %g is not finite", r.Outcome.EvictedAt)
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
	// Shards is the daemon's admission-shard count.
	Shards int `json:"shards"`
	// Swaps counts hot-swaps applied since the daemon started.
	Swaps int64 `json:"swaps"`

	// Binary reports that the daemon speaks the binary frame codec.
	// Older JSON-only daemons omit it, which is how a binary-preferring
	// client knows to fall back to JSON.
	Binary bool `json:"binary,omitempty"`
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
	// Encoder is the active model's feature encoder (vocabularies or
	// hashing config), shipped so clients can extract and bin feature
	// rows locally and keep the daemon's hot path free of per-job
	// feature work.
	Encoder *features.Encoder `json:"encoder,omitempty"`

	// TraceIDs reports that the daemon decodes the optional trace-ID
	// field of binary place-request frames (payload flag bit 0). Clients
	// must not set that flag against daemons that omit this — older
	// builds reject any nonzero payload flag bits, which is exactly the
	// fallback story: the capability is advertised, never probed.
	TraceIDs bool `json:"trace_ids,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
