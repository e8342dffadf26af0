package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

// fillLeaves sets every leaf field under v to a distinct non-zero value,
// counting up from *n, and fails on a kind the outcome codec has no
// encoding for — a field of a new kind added to trace.Job needs a codec
// change, not a silent skip.
func fillLeaves(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillLeaves(t, v.Field(i), n)
		}
	case reflect.String:
		*n++
		v.SetString(fmt.Sprintf("s%d-%s", *n, strings.Repeat("x", *n)))
	case reflect.Int, reflect.Int64:
		*n++
		v.SetInt(-int64(*n) << 33) // past 32 bits, and negative
	case reflect.Float64:
		*n++
		v.SetFloat(float64(*n) + 0.5)
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("outcome codec test cannot fill a %s field", v.Kind())
	}
}

// fullOutcomeRequest is an outcome request with no zero-valued leaf.
func fullOutcomeRequest(t *testing.T) OutcomeRequest {
	t.Helper()
	n := 0
	want := OutcomeRequest{Job: &trace.Job{}}
	fillLeaves(t, reflect.ValueOf(want.Job).Elem(), &n)
	fillLeaves(t, reflect.ValueOf(&want.Outcome).Elem(), &n)
	fillLeaves(t, reflect.ValueOf(&want.Category).Elem(), &n)
	return want
}

// TestOutcomeFrameCarriesEveryField is the guard against the codec
// silently dropping a field: a request with every leaf of trace.Job and
// Outcome set must come back deeply equal, with and without a trace ID.
// A field added to trace.Job later fails here instead of vanishing from
// the learner's window.
func TestOutcomeFrameCarriesEveryField(t *testing.T) {
	want := fullOutcomeRequest(t)
	for _, traceID := range []uint64{0, 0xabad1dea5eed} {
		frame, err := AppendOutcomeFrame(nil, traceID, &want)
		if err != nil {
			t.Fatal(err)
		}
		ft, payload, err := DecodeFrame(frame, 0)
		if err != nil || ft != FrameOutcomeRequest {
			t.Fatalf("frame type %d err %v", ft, err)
		}
		var got OutcomeRequest
		gotID, err := DecodeOutcomeRequest(payload, &got)
		if err != nil {
			t.Fatal(err)
		}
		if gotID != traceID {
			t.Errorf("trace ID %x came back %x", traceID, gotID)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace ID %x: decoded\n%+v\n%+v\nwant\n%+v\n%+v", traceID, got, *got.Job, want, *want.Job)
		}
	}

	// The zero job travels too (the daemon's Validate refuses it, not the codec).
	var got OutcomeRequest
	frame, err := AppendOutcomeFrame(nil, 0, &OutcomeRequest{Job: &trace.Job{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeOutcomeRequest(frame[HeaderSize:], &got); err != nil || !reflect.DeepEqual(got, OutcomeRequest{Job: &trace.Job{}}) {
		t.Errorf("zero job came back %+v, %v", got, err)
	}
	if _, err := AppendOutcomeFrame(nil, 0, &OutcomeRequest{}); err == nil {
		t.Error("request without a job encoded")
	}
	if ack := AppendOutcomeAckFrame(nil); len(ack) != HeaderSize || FrameType(ack[4]) != FrameOutcomeAck {
		t.Errorf("ack frame % x", ack)
	}
}

// floatLeaves collects a pointer to every float64 leaf under v.
func floatLeaves(v reflect.Value, into *[]*float64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			floatLeaves(v.Field(i), into)
		}
	case reflect.Float64:
		*into = append(*into, v.Addr().Interface().(*float64))
	}
}

// requestFloats is every float64 an outcome request carries.
func requestFloats(req *OutcomeRequest) []*float64 {
	var fs []*float64
	floatLeaves(reflect.ValueOf(req.Job).Elem(), &fs)
	floatLeaves(reflect.ValueOf(&req.Outcome).Elem(), &fs)
	return fs
}

// TestOutcomeValidateRejectsNonFinite is the guard the frame path needs
// and JSON never did: a frame carries float bits as they are, so every
// float of the job and the outcome, set to NaN or an infinity in turn,
// must survive the codec and then fail Validate — before the learner's
// window or a heat accumulator can take it in. The walk is by reflection,
// so a float added to trace.Job without a finiteness check fails here.
func TestOutcomeValidateRejectsNonFinite(t *testing.T) {
	req := OutcomeRequest{Job: outcomeJob(), Outcome: Outcome{WantedSSD: true, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}}
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	fs := requestFloats(&req)
	if len(fs) != 14 {
		t.Fatalf("walked %d floats, want 14 (7 job, 4 history, 3 outcome)", len(fs))
	}
	for i, f := range fs {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			keep := *f
			*f = bad
			frame, err := AppendOutcomeFrame(nil, 0, &req)
			if err != nil {
				t.Fatal(err)
			}
			var got OutcomeRequest
			if _, err := DecodeOutcomeRequest(frame[HeaderSize:], &got); err != nil {
				t.Fatalf("float %d = %g: the codec refused it: %v", i, bad, err)
			}
			if err := got.Validate(); err == nil {
				t.Errorf("float %d = %g passed Validate after the frame round trip", i, bad)
			}
			*f = keep
		}
	}
	if err := req.Validate(); err != nil {
		t.Errorf("request restored, yet: %v", err)
	}
}

// TestOutcomeCodecAllocs pins the codec's allocation contract: none to
// encode into warm scratch, two to decode (the job and its string blob).
func TestOutcomeCodecAllocs(t *testing.T) {
	req := fullOutcomeRequest(t)
	frame, err := AppendOutcomeFrame(nil, 7, &req)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { frame, _ = AppendOutcomeFrame(frame[:0], 7, &req) }); got != 0 {
		t.Errorf("encode allocates %.1f times, want 0", got)
	}
	var out OutcomeRequest
	if got := testing.AllocsPerRun(100, func() { _, _ = DecodeOutcomeRequest(frame[HeaderSize:], &out) }); got != 2 {
		t.Errorf("decode allocates %.1f times, want 2", got)
	}
}

// outcomeFuzzSeeds is the malformed-outcome corpus: a valid payload with
// and without a trace ID, every truncation at a section boundary, string
// lengths that overrun or undershoot the payload, reserved bits, and the
// trace flag over a zero ID.
func outcomeFuzzSeeds(t testing.TB) (valid [][]byte, malformed [][]byte) {
	req := OutcomeRequest{Job: outcomeJob(), Category: 3, Outcome: Outcome{WantedSSD: true, FracOnSSD: 0.5, SpilledAt: 60, EvictedAt: -1}}
	req.Job.Pipeline, req.Job.Step, req.Job.Meta.UserName = "pipe", "step", "someone"
	plain, err := AppendOutcomeFrame(nil, 0, &req)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := AppendOutcomeFrame(nil, 0x5eed, &req)
	if err != nil {
		t.Fatal(err)
	}
	req.Job.History.AvgTCIO = math.NaN() // decodes; Validate's to refuse
	nan, err := AppendOutcomeFrame(nil, 0, &req)
	if err != nil {
		t.Fatal(err)
	}
	plain, traced, nan = plain[HeaderSize:], traced[HeaderSize:], nan[HeaderSize:]
	mutate := func(src []byte, f func(b []byte)) []byte {
		b := append([]byte(nil), src...)
		f(b)
		return b
	}
	lens := 2 + outcomeFixedSize - outcomeStrings*4 // offset of the string lengths in plain
	malformed = [][]byte{
		{}, plain[:1], plain[:2], plain[:2+8], plain[:2+9], plain[:lens], plain[:lens+4],
		plain[:2+outcomeFixedSize], plain[:len(plain)-1], traced[:2+4], traced[:2+8+outcomeFixedSize],
		append(append([]byte(nil), plain...), 0),
		mutate(plain, func(b []byte) { binary.LittleEndian.PutUint32(b[lens:], 0xffffffff) }),
		mutate(plain, func(b []byte) {
			for i := 0; i < outcomeStrings; i++ {
				binary.LittleEndian.PutUint32(b[lens+4*i:], 0xffffffff)
			}
		}),
		mutate(plain, func(b []byte) { binary.LittleEndian.PutUint32(b[lens:], 0) }),
		mutate(plain, func(b []byte) { b[0] = 2 }),
		mutate(plain, func(b []byte) { b[1] = 0x80 }),
		mutate(plain, func(b []byte) { b[2+8] = 2 }),
		mutate(traced, func(b []byte) { copy(b[2:10], make([]byte, 8)) }),
	}
	return [][]byte{plain, traced, nan}, malformed
}

func TestDecodeOutcomeRejections(t *testing.T) {
	valid, malformed := outcomeFuzzSeeds(t)
	var req OutcomeRequest
	for i, p := range valid {
		if _, err := DecodeOutcomeRequest(p, &req); err != nil {
			t.Errorf("valid seed %d refused: %v", i, err)
		}
	}
	for i, p := range malformed {
		req = OutcomeRequest{}
		if _, err := DecodeOutcomeRequest(p, &req); err == nil {
			t.Errorf("malformed seed %d (%d bytes) accepted", i, len(p))
		}
		if req.Job != nil {
			t.Errorf("malformed seed %d wrote to the request", i)
		}
	}
}

// FuzzDecodeOutcomeRequest throws arbitrary payloads at the outcome
// decoder: malformed input errors, never panics, and never allocates
// from a length it has not checked against the payload — whatever
// decodes re-encodes to the same bytes, so no string can be longer than
// what arrived. What then passes Validate holds no non-finite float.
func FuzzDecodeOutcomeRequest(f *testing.F) {
	valid, malformed := outcomeFuzzSeeds(f)
	for _, p := range append(valid, malformed...) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var req OutcomeRequest
		traceID, err := DecodeOutcomeRequest(payload, &req)
		if err != nil {
			return
		}
		frame, err := AppendOutcomeFrame(nil, traceID, &req)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v", err)
		}
		if string(frame[HeaderSize:]) != string(payload) {
			t.Fatalf("payload % x re-encoded as % x", payload, frame[HeaderSize:])
		}
		if req.Validate() != nil {
			return
		}
		for i, f := range requestFloats(&req) {
			if math.IsNaN(*f) || math.IsInf(*f, 0) {
				t.Fatalf("float %d = %g decoded and passed Validate", i, *f)
			}
		}
	})
}
