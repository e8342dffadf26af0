package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/trace"
)

// Outcome frames: the feedback direction of the stream protocol. The
// package doc has the payload layout. Encoding appends into the caller's
// scratch; decoding allocates the trace.Job its consumers keep and one
// string the ten fields are substrings of.

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
// optional trace-ID extension; daemons that advertise
// ModelInfo.OutcomeFrames decode it. The request is not validated (see
// OutcomeRequest.Validate), only checked for encodability.
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

// DecodeOutcomeRequest parses an outcome-request payload into req and
// returns the trace ID it carried (0 for none). It allocates the job
// and one string holding every string field, after checking every
// declared length against the payload, so a hostile length cannot force
// an over-allocation. On error req is untouched.
func DecodeOutcomeRequest(payload []byte, req *OutcomeRequest) (uint64, error) {
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

	req.Category = category
	req.Outcome = Outcome{WantedSSD: wanted == 1, FracOnSSD: r.f64(), SpilledAt: r.f64(), EvictedAt: r.f64()}
	j := &trace.Job{ArrivalSec: r.f64(), LifetimeSec: r.f64(), SizeBytes: r.f64(), ReadBytes: r.f64(),
		WriteBytes: r.f64(), AvgReadSizeBytes: r.f64(), CacheHitFrac: r.f64()}
	j.Resources = trace.Resources{
		BucketSizingInitialNumStripes: r.int(), BucketSizingNumShards: r.int(), BucketSizingNumWorkerThreads: r.int(),
		BucketSizingNumWorkers: r.int(), InitialNumBuckets: r.int(), NumBuckets: r.int(),
		RecordsWritten: r.i64(), RequestedNumShards: r.int(),
	}
	j.History = trace.History{AvgTCIO: r.f64(), AvgSizeBytes: r.f64(), AvgLifetime: r.f64(), AvgIODensity: r.f64(), NumRuns: r.int()}
	blob := string(payload[off+outcomeFixedSize:])
	for i, dst := range [outcomeStrings]*string{&j.ID, &j.Cluster, &j.User, &j.Pipeline, &j.Step,
		&j.Meta.BuildTargetName, &j.Meta.ExecutionName, &j.Meta.PipelineName, &j.Meta.StepName, &j.Meta.UserName} {
		n := binary.LittleEndian.Uint32(lens[4*i:])
		*dst, blob = blob[:n], blob[n:]
	}
	req.Job = j
	return traceID, nil
}
