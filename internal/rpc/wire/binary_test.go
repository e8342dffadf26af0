package wire

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// testRequest builds a representative place request: n jobs, nf
// features, deterministic contents.
func testRequest(n, nf int) (hashes []uint32, arrivals []float64, rows [][]uint16) {
	hashes = make([]uint32, n)
	arrivals = make([]float64, n)
	rows = make([][]uint16, n)
	backing := make([]uint16, n*nf)
	for i := 0; i < n; i++ {
		hashes[i] = uint32(i * 2654435761)
		arrivals[i] = float64(i) * 3.25
		row := backing[i*nf : (i+1)*nf]
		for f := 0; f < nf; f++ {
			row[f] = uint16((i + f*7) % 300)
		}
		rows[i] = row
	}
	return hashes, arrivals, rows
}

func TestPlaceRequestRoundTrip(t *testing.T) {
	hashes, arrivals, rows := testRequest(17, 31)
	arrivals[3] = math.Inf(1)
	arrivals[4] = -0.0
	frame, err := AppendPlaceRequestFrame(nil, 42, 31, 0, hashes, arrivals, rows)
	if err != nil {
		t.Fatal(err)
	}
	ft, payload, err := DecodeFrame(frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ft != FramePlaceRequest {
		t.Fatalf("frame type %d, want %d", ft, FramePlaceRequest)
	}
	var req BinaryPlaceRequest
	if err := DecodePlaceRequest(payload, &req, 0); err != nil {
		t.Fatal(err)
	}
	if req.ModelVersion != 42 || req.NumFeatures != 31 {
		t.Fatalf("decoded version %d / %d features, want 42 / 31", req.ModelVersion, req.NumFeatures)
	}
	if !reflect.DeepEqual(req.Hashes, hashes) || !reflect.DeepEqual(req.Arrivals, arrivals) {
		t.Fatal("hashes or arrivals did not round-trip")
	}
	if !reflect.DeepEqual(req.Rows, rows) {
		t.Fatal("rows did not round-trip")
	}
}

// TestPlaceRequestTraceID covers the optional trace-ID extension: a
// nonzero trace ID round-trips, a zero one leaves the frame in the
// legacy (flags == 0) form byte-for-byte, and corrupted extensions are
// rejected.
func TestPlaceRequestTraceID(t *testing.T) {
	hashes, arrivals, rows := testRequest(4, 5)
	traced, err := AppendPlaceRequestFrame(nil, 3, 5, 0xfeedface12345678, hashes, arrivals, rows)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := AppendPlaceRequestFrame(nil, 3, 5, 0, hashes, arrivals, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced) != len(plain)+8 {
		t.Fatalf("traced frame is %d bytes, plain %d; want exactly 8 more", len(traced), len(plain))
	}
	var req BinaryPlaceRequest
	if _, payload, err := DecodeFrame(traced, 0); err != nil {
		t.Fatal(err)
	} else if err := DecodePlaceRequest(payload, &req, 0); err != nil {
		t.Fatal(err)
	}
	if req.TraceID != 0xfeedface12345678 {
		t.Fatalf("trace ID = %x, want feedface12345678", req.TraceID)
	}
	if !reflect.DeepEqual(req.Rows, rows) {
		t.Fatal("rows did not round-trip alongside the trace ID")
	}
	if _, payload, err := DecodeFrame(plain, 0); err != nil {
		t.Fatal(err)
	} else if err := DecodePlaceRequest(payload, &req, 0); err != nil {
		t.Fatal(err)
	}
	if req.TraceID != 0 {
		t.Fatalf("plain frame decoded trace ID %x, want 0", req.TraceID)
	}

	// A daemon that predates tracing sees the extension as reserved bits:
	// emulate it by requiring flags beyond bit 0 to reject.
	bad := append([]byte(nil), traced...)
	bad[HeaderSize+10] |= 2 // set a genuinely reserved payload flag
	if _, payload, err := DecodeFrame(bad, 0); err != nil {
		t.Fatal(err)
	} else if err := DecodePlaceRequest(payload, &req, 0); err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("reserved payload flag accepted: %v", err)
	}
	// Flag set but extension truncated: the length check must catch it.
	short := append([]byte(nil), traced[:len(traced)-8]...)
	binaryPatchLen(short, len(short)-HeaderSize)
	if _, payload, err := DecodeFrame(short, 0); err != nil {
		t.Fatal(err)
	} else if err := DecodePlaceRequest(payload, &req, 0); err == nil {
		t.Fatal("truncated trace extension accepted")
	}
	// Flag set but trace ID zero: contradictory, rejected.
	zeroID := append([]byte(nil), traced...)
	for i := 0; i < 8; i++ {
		zeroID[HeaderSize+requestHeadSize+i] = 0
	}
	if _, payload, err := DecodeFrame(zeroID, 0); err != nil {
		t.Fatal(err)
	} else if err := DecodePlaceRequest(payload, &req, 0); err == nil || !strings.Contains(err.Error(), "zero") {
		t.Fatalf("zero trace ID with flag set accepted: %v", err)
	}
}

// binaryPatchLen rewrites a frame's payload-length field after a test
// truncates its buffer.
func binaryPatchLen(frame []byte, n int) {
	frame[8] = byte(n)
	frame[9] = byte(n >> 8)
	frame[10] = byte(n >> 16)
	frame[11] = byte(n >> 24)
}

func TestPlaceResponseRoundTrip(t *testing.T) {
	decisions := []Decision{
		{Admit: true, Category: 0, Shard: 0},
		{Admit: false, Category: 14, Shard: 7},
		{Admit: true, Category: 65535, Shard: 255},
	}
	frame, err := AppendPlaceResponseFrame(nil, 9, decisions)
	if err != nil {
		t.Fatal(err)
	}
	ft, payload, err := DecodeFrame(frame, 0)
	if err != nil || ft != FramePlaceResponse {
		t.Fatalf("frame type %d err %v", ft, err)
	}
	var resp BinaryPlaceResponse
	if err := DecodePlaceResponse(payload, &resp, 0); err != nil {
		t.Fatal(err)
	}
	if resp.ModelVersion != 9 {
		t.Fatalf("version %d, want 9", resp.ModelVersion)
	}
	for i, d := range resp.Decisions {
		want := decisions[i]
		want.ModelVersion = 9 // binary decisions inherit the frame version
		if d != want {
			t.Errorf("decision %d = %+v, want %+v", i, d, want)
		}
	}
}

func TestErrorFrameRoundTrip(t *testing.T) {
	frame := AppendErrorFrame(nil, ErrCodeModelVersion, "stale bins")
	ft, payload, err := DecodeFrame(frame, 0)
	if err != nil || ft != FrameError {
		t.Fatalf("frame type %d err %v", ft, err)
	}
	code, msg, err := DecodeError(payload)
	if err != nil || code != ErrCodeModelVersion || msg != "stale bins" {
		t.Fatalf("decoded (%d, %q, %v)", code, msg, err)
	}
}

func TestReadFrameStream(t *testing.T) {
	hashes, arrivals, rows := testRequest(3, 5)
	var stream []byte
	var err error
	stream, err = AppendPlaceRequestFrame(stream, 1, 5, 0, hashes, arrivals, rows)
	if err != nil {
		t.Fatal(err)
	}
	stream = AppendErrorFrame(stream, ErrCodeOverloaded, "busy")
	r := bytes.NewReader(stream)
	var buf []byte
	ft, buf, _, err := ReadFrame(r, buf, 0)
	if err != nil || ft != FramePlaceRequest {
		t.Fatalf("first frame: type %d err %v", ft, err)
	}
	ft, buf, payload, err := ReadFrame(r, buf, 0)
	if err != nil || ft != FrameError {
		t.Fatalf("second frame: type %d err %v", ft, err)
	}
	if code, msg, _ := DecodeError(payload); code != ErrCodeOverloaded || msg != "busy" {
		t.Fatalf("second frame decoded (%d, %q)", code, msg)
	}
	if _, _, _, err := ReadFrame(r, buf, 0); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

// TestDecodeRejections drives the malformed-input contract: every
// corruption errors cleanly, none panics.
func TestDecodeRejections(t *testing.T) {
	hashes, arrivals, rows := testRequest(2, 3)
	good, err := AppendPlaceRequestFrame(nil, 1, 3, 0, hashes, arrivals, rows)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		buf  []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"short header", good[:HeaderSize-1], "truncated"},
		{"bad magic", mutate(func(b []byte) { b[0] = 'X' }), "magic"},
		{"unknown type", mutate(func(b []byte) { b[4] = 99 }), "unknown frame type"},
		{"reserved flag", mutate(func(b []byte) { b[5] = 1 }), "reserved"},
		{"truncated payload", good[:len(good)-1], "declares"},
		{"trailing bytes", append(append([]byte(nil), good...), 0), "declares"},
		{"oversized length", mutate(func(b []byte) { b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0xff }), "exceeds limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := DecodeFrame(tc.buf, 0)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}

	// Payload-level corruption: frame header fine, request body lies.
	var req BinaryPlaceRequest
	payload := func(b []byte) []byte { return b[HeaderSize:] }
	if err := DecodePlaceRequest(payload(good)[:4], &req, 0); err == nil {
		t.Error("truncated request payload accepted")
	}
	zeroJobs := mutate(func(b []byte) { b[HeaderSize+4], b[HeaderSize+5] = 0, 0 })
	if err := DecodePlaceRequest(payload(zeroJobs), &req, 0); err == nil {
		t.Error("zero-job request accepted")
	}
	hugeJobs := mutate(func(b []byte) {
		b[HeaderSize+4], b[HeaderSize+5], b[HeaderSize+6], b[HeaderSize+7] = 0xff, 0xff, 0xff, 0xff
	})
	if err := DecodePlaceRequest(payload(hugeJobs), &req, 0); err == nil {
		t.Error("job count far past payload length accepted")
	}
	if err := DecodePlaceRequest(payload(good), &req, 1); err == nil {
		t.Error("request above maxBatch accepted")
	}

	rframe, err := AppendPlaceResponseFrame(nil, 1, []Decision{{Admit: true}})
	if err != nil {
		t.Fatal(err)
	}
	var resp BinaryPlaceResponse
	badFlags := append([]byte(nil), rframe...)
	badFlags[len(badFlags)-1] = 0xfe // reserved decision flag bits
	if err := DecodePlaceResponse(badFlags[HeaderSize:], &resp, 0); err == nil {
		t.Error("reserved decision flags accepted")
	}
	if _, _, err := DecodeError([]byte{1}); err == nil {
		t.Error("truncated error payload accepted")
	}
	if _, _, err := DecodeError([]byte{1, 0, 200, 0}); err == nil {
		t.Error("error payload with lying message length accepted")
	}
}

// TestCodecSteadyStateAllocs pins the pooled contract: once buffers are
// warm, encode and decode allocate nothing per frame.
func TestCodecSteadyStateAllocs(t *testing.T) {
	hashes, arrivals, rows := testRequest(64, 31)
	var frame []byte
	var req BinaryPlaceRequest
	// Warm-up sizes every reusable buffer.
	frame, err := AppendPlaceRequestFrame(frame[:0], 1, 31, 0, hashes, arrivals, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodePlaceRequest(frame[HeaderSize:], &req, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		frame, err = AppendPlaceRequestFrame(frame[:0], 1, 31, 0, hashes, arrivals, rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodePlaceRequest(frame[HeaderSize:], &req, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("request encode+decode allocates %.1f objects/frame in steady state, want 0", allocs)
	}

	decisions := make([]Decision, 64)
	for i := range decisions {
		decisions[i] = Decision{Admit: i%2 == 0, Category: i % 15, Shard: i % 8}
	}
	var rframe []byte
	var resp BinaryPlaceResponse
	rframe, err = AppendPlaceResponseFrame(rframe[:0], 1, decisions)
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodePlaceResponse(rframe[HeaderSize:], &resp, 0); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		rframe, err = AppendPlaceResponseFrame(rframe[:0], 1, decisions)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodePlaceResponse(rframe[HeaderSize:], &resp, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("response encode+decode allocates %.1f objects/frame in steady state, want 0", allocs)
	}
}

// BenchmarkWireCodec measures the codec cost of a 64-job batch. binary
// is the full request+response encode/decode cycle of a 31-feature
// frame pair, the daemon hot path's codec cost per batch; json-request
// and json-response are one JSON document each, encoded and decoded
// into warm storage. Run with -benchmem: steady state is 0 allocs/op
// but for the one string a decoded JSON request's strings share.
func BenchmarkWireCodec(b *testing.B) {
	decisions := make([]Decision, 64)
	for i := range decisions {
		decisions[i] = Decision{Admit: i%2 == 0, Category: i % 15, Shard: i % 8}
	}
	b.Run("binary", func(b *testing.B) {
		hashes, arrivals, rows := testRequest(64, 31)
		var frame, rframe []byte
		var req BinaryPlaceRequest
		var resp BinaryPlaceResponse
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			frame, err = AppendPlaceRequestFrame(frame[:0], 1, 31, 0, hashes, arrivals, rows)
			if err != nil {
				b.Fatal(err)
			}
			if err := DecodePlaceRequest(frame[HeaderSize:], &req, 0); err != nil {
				b.Fatal(err)
			}
			rframe, err = AppendPlaceResponseFrame(rframe[:0], 1, decisions)
			if err != nil {
				b.Fatal(err)
			}
			if err := DecodePlaceResponse(rframe[HeaderSize:], &resp, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(frame) + len(rframe)))
	})
	jobs := fixtureJobs(b, 64)
	for i := range decisions {
		decisions[i].JobID = jobs[i].ID
	}
	b.Run("json-request", func(b *testing.B) {
		var body []byte
		var sc JSONScratch
		var req PlaceRequest
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if body, err = AppendPlaceRequestJSON(body[:0], jobs); err != nil {
				b.Fatal(err)
			}
			if err := DecodePlaceRequestJSON(body, &req, &sc); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(body)))
	})
	b.Run("json-response", func(b *testing.B) {
		var body []byte
		var resp PlaceResponse
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body = AppendPlaceResponseJSON(body[:0], decisions)
			if err := DecodePlaceResponseJSON(body, &resp, jobs); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(body)))
	})
}
