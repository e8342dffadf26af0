package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/trace"
)

// Outcome frames: the feedback direction of the stream protocol. The
// package doc has the payload layout. Encoding appends into the caller's
// scratch. There is one decoder, DecodeOutcomeView, and it decodes in
// place: numerics into a caller-owned trace.Job, the ten strings left in
// the payload, no allocation. The serving core reads no string of a job
// and keeps none once serve.Observe returns, so that is all the daemon
// needs unless a learner or an outcome observer is attached; those keep
// jobs, and get OutcomeView.Own's: the job and one string the ten fields
// are substrings of, allocated then and only then.

// outcomeFlagTraceID marks an outcome payload whose flags are followed
// by a u64 trace ID.
const outcomeFlagTraceID uint16 = 1

// outcomeStrings is the number of string fields a trace.Job carries.
const outcomeStrings = 10

// outcomeFixedSize is the outcome payload between the flags (and the
// optional trace ID) and the string bytes: category, wanted_ssd, three
// outcome floats, twenty job numerics, ten string lengths.
const outcomeFixedSize = 8 + 1 + 3*8 + 20*8 + outcomeStrings*4

func appendF64s(dst []byte, vs ...float64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func appendI64s(dst []byte, vs ...int64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// AppendOutcomeFrame appends one complete outcome-request frame to dst
// and returns the extended slice. A nonzero traceID rides in the
// optional trace-ID extension, which every daemon decodes. The request is not validated (see OutcomeRequest.Validate),
// only checked for encodability.
func AppendOutcomeFrame(dst []byte, traceID uint64, req *OutcomeRequest) ([]byte, error) {
	j := req.Job
	if j == nil {
		return dst, fmt.Errorf("wire: outcome request has no job")
	}
	strs := [outcomeStrings]string{j.ID, j.Cluster, j.User, j.Pipeline, j.Step,
		j.Meta.BuildTargetName, j.Meta.ExecutionName, j.Meta.PipelineName, j.Meta.StepName, j.Meta.UserName}
	for _, s := range strs {
		if uint64(len(s)) > math.MaxUint32 {
			return dst, fmt.Errorf("wire: outcome job string of %d bytes not encodable", len(s))
		}
	}
	dst, start := beginFrame(dst, FrameOutcomeRequest)
	if traceID != 0 {
		dst = binary.LittleEndian.AppendUint16(dst, outcomeFlagTraceID)
		dst = binary.LittleEndian.AppendUint64(dst, traceID)
	} else {
		dst = binary.LittleEndian.AppendUint16(dst, 0)
	}
	dst = appendI64s(dst, int64(req.Category))
	var wanted byte
	if req.Outcome.WantedSSD {
		wanted = 1
	}
	dst = append(dst, wanted)
	dst = appendF64s(dst, req.Outcome.FracOnSSD, req.Outcome.SpilledAt, req.Outcome.EvictedAt,
		j.ArrivalSec, j.LifetimeSec, j.SizeBytes, j.ReadBytes, j.WriteBytes, j.AvgReadSizeBytes, j.CacheHitFrac)
	r := &j.Resources
	dst = appendI64s(dst, int64(r.BucketSizingInitialNumStripes), int64(r.BucketSizingNumShards),
		int64(r.BucketSizingNumWorkerThreads), int64(r.BucketSizingNumWorkers), int64(r.InitialNumBuckets),
		int64(r.NumBuckets), r.RecordsWritten, int64(r.RequestedNumShards))
	h := &j.History
	dst = appendF64s(dst, h.AvgTCIO, h.AvgSizeBytes, h.AvgLifetime, h.AvgIODensity)
	dst = appendI64s(dst, int64(h.NumRuns))
	for _, s := range strs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	}
	for _, s := range strs {
		dst = append(dst, s...)
	}
	return endFrame(dst, start), nil
}

// AppendOutcomeAckFrame appends one complete outcome-ack frame to dst.
func AppendOutcomeAckFrame(dst []byte) []byte {
	dst, start := beginFrame(dst, FrameOutcomeAck)
	return endFrame(dst, start)
}

// fixedReader walks a payload section whose length the caller already
// checked.
type fixedReader struct{ b []byte }

func (r *fixedReader) u64() uint64 {
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *fixedReader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *fixedReader) i64() int64   { return int64(r.u64()) }
func (r *fixedReader) int() int     { return int(r.i64()) }

// OutcomeView is an outcome request as the daemon's pipeline reads it:
// enough to validate the request and feed the controller without
// owning the job. DecodeOutcomeView fills one in place from a frame
// payload; OutcomeRequest.View wraps a request that already owns its job
// (the JSON shell's), so one pipeline serves both.
type OutcomeView struct {
	Category int
	Outcome  Outcome
	// Job holds the job's numeric fields. After DecodeOutcomeView it is
	// the caller's scratch job and its strings are empty — they stay in
	// the payload, which the view borrows until the caller reads its next
	// frame. A consumer that keeps the job takes Own's.
	Job *trace.Job
	// lens and blob are the payload's ten string lengths and the string
	// bytes after them; nil when Job owns its strings.
	lens, blob []byte
}

// View is the pipeline's form of a request whose job is already owned.
func (r *OutcomeRequest) View() OutcomeView {
	return OutcomeView{Category: r.Category, Outcome: r.Outcome, Job: r.Job}
}

// Validate is OutcomeRequest.Validate for the request in view: the same
// checks, run by the same code, with the same refusals. Those checks
// read one string, the job's ID, for being empty and to word a refusal;
// a borrowed view lends its scratch job a stand-in for the first and,
// on the cold path where a check fails, validates the owned copy for
// the second.
func (v *OutcomeView) Validate() error {
	req := OutcomeRequest{Job: v.Job, Outcome: v.Outcome}
	// The job's ID is the first of a borrowed view's ten strings.
	if v.lens != nil && binary.LittleEndian.Uint32(v.lens) > 0 {
		v.Job.ID = "?"
		err := req.Validate()
		v.Job.ID = ""
		if err == nil {
			return nil
		}
		req.Job = v.Own()
	}
	return req.Validate()
}

// Own returns the job for a consumer that keeps it: the view's own when
// it already owns its strings, otherwise a copy that allocates the job
// and one string the ten fields are substrings of, so nothing returned
// points into the payload.
func (v *OutcomeView) Own() *trace.Job {
	if v.lens == nil {
		return v.Job
	}
	j := new(trace.Job)
	*j = *v.Job
	blob := string(v.blob)
	for i, dst := range [outcomeStrings]*string{&j.ID, &j.Cluster, &j.User, &j.Pipeline, &j.Step,
		&j.Meta.BuildTargetName, &j.Meta.ExecutionName, &j.Meta.PipelineName, &j.Meta.StepName, &j.Meta.UserName} {
		n := binary.LittleEndian.Uint32(v.lens[4*i:])
		*dst, blob = blob[:n], blob[n:]
	}
	return j
}

// DecodeOutcomeView parses an outcome-request payload in place and
// returns the trace ID it carried (0 for none). It allocates nothing:
// the numeric fields go into job, which becomes v.Job with its strings
// cleared; the strings stay in payload, which v borrows. Every
// declared length is checked against the payload before anything is
// read through it. On error v and job are untouched.
func DecodeOutcomeView(payload []byte, job *trace.Job, v *OutcomeView) (uint64, error) {
	if len(payload) < 2 {
		return 0, fmt.Errorf("wire: outcome payload truncated at %d bytes", len(payload))
	}
	flags := binary.LittleEndian.Uint16(payload)
	if flags&^outcomeFlagTraceID != 0 {
		return 0, fmt.Errorf("wire: reserved outcome bits set")
	}
	off := 2
	var traceID uint64
	if flags&outcomeFlagTraceID != 0 {
		if len(payload) < off+8 {
			return 0, fmt.Errorf("wire: outcome payload truncated at %d bytes", len(payload))
		}
		if traceID = binary.LittleEndian.Uint64(payload[off:]); traceID == 0 {
			return 0, fmt.Errorf("wire: trace ID flag set but trace ID is zero")
		}
		off += 8
	}
	if len(payload) < off+outcomeFixedSize {
		return 0, fmt.Errorf("wire: outcome payload truncated at %d bytes", len(payload))
	}
	lens := payload[off+outcomeFixedSize-outcomeStrings*4 : off+outcomeFixedSize]
	var total uint64
	for i := 0; i < outcomeStrings; i++ {
		total += uint64(binary.LittleEndian.Uint32(lens[4*i:]))
	}
	if have := len(payload) - off - outcomeFixedSize; total != uint64(have) {
		return 0, fmt.Errorf("wire: outcome declares %d string bytes, payload has %d", total, have)
	}
	r := fixedReader{payload[off:]}
	category := r.int()
	wanted := r.b[0]
	if wanted > 1 {
		return 0, fmt.Errorf("wire: outcome wanted_ssd byte %#x is neither 0 nor 1", wanted)
	}
	r.b = r.b[1:]

	*v = OutcomeView{Category: category, Job: job, lens: lens, blob: payload[off+outcomeFixedSize:]}
	v.Outcome = Outcome{WantedSSD: wanted == 1, FracOnSSD: r.f64(), SpilledAt: r.f64(), EvictedAt: r.f64()}
	*job = trace.Job{ArrivalSec: r.f64(), LifetimeSec: r.f64(), SizeBytes: r.f64(), ReadBytes: r.f64(),
		WriteBytes: r.f64(), AvgReadSizeBytes: r.f64(), CacheHitFrac: r.f64()}
	job.Resources = trace.Resources{
		BucketSizingInitialNumStripes: r.int(), BucketSizingNumShards: r.int(), BucketSizingNumWorkerThreads: r.int(),
		BucketSizingNumWorkers: r.int(), InitialNumBuckets: r.int(), NumBuckets: r.int(),
		RecordsWritten: r.i64(), RequestedNumShards: r.int(),
	}
	job.History = trace.History{AvgTCIO: r.f64(), AvgSizeBytes: r.f64(), AvgLifetime: r.f64(), AvgIODensity: r.f64(), NumRuns: r.int()}
	return traceID, nil
}
