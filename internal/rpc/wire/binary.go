package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary codec: the length-prefixed frame protocol of /v1/stream
// sessions. Every frame is
//
//	offset size  field
//	0      4     magic "BYM1"
//	4      1     frame type (the table is in the package doc)
//	5      1     flags (reserved, must be 0)
//	6      2     reserved (must be 0)
//	8      4     payload length N (uint32 LE)
//	12     N     payload
//
// All fixed-width fields are little-endian. A place-request payload is
//
//	u32 model version | u32 num jobs | u16 num features | u16 flags
//	[u64 trace ID, present iff flags bit 0]
//	then per job: u32 template hash | u64 arrival (float64 bits)
//	              | num_features x u16 bin index
//
// Payload flags other than bit 0 are reserved and rejected. Every daemon
// decodes the trace-ID field, so a client sets bit 0 whenever it has a
// trace ID to send.
//
// — jobs travel as pre-binned feature vectors (see features.Binner), so
// the daemon never touches strings, tokenization or vocabularies. A
// place-response payload is
//
//	u32 model version | u32 num decisions
//	then per decision: u16 category | u8 shard | u8 flags (bit0 = admit)
//
// and an error payload is `u16 code | u16 msg len | msg bytes`.
// Decisions answer request rows in order; job IDs never cross the wire.
// The encode side is append-style and the decode side fills
// caller-owned reusable structs, so a steady-state client/daemon pair
// allocates nothing per frame.

// ContentTypeBinary is the media type of the binary frame codec: the
// protocol the /v1/stream upgrade names.
const ContentTypeBinary = "application/x-byom-frame"

// ContentTypeJSON is the media type of every HTTP request and response
// body.
const ContentTypeJSON = "application/json"

// Magic opens every binary frame.
var Magic = [4]byte{'B', 'Y', 'M', '1'}

// FrameType discriminates frame payloads.
type FrameType uint8

// Frame types.
const (
	FramePlaceRequest  FrameType = 1
	FramePlaceResponse FrameType = 2
	FrameError         FrameType = 3
	// FrameOutcomeRequest and FrameOutcomeAck carry outcome feedback on a
	// stream session.
	FrameOutcomeRequest FrameType = 4
	FrameOutcomeAck     FrameType = 5
)

// HeaderSize is the fixed frame header length.
const HeaderSize = 12

// DefaultMaxFramePayload caps payload length accepted by the decoders
// (mirrors the daemon's default body cap).
const DefaultMaxFramePayload = 8 << 20

// MaxRowFeatures bounds the per-row feature count a decoder will
// accept; real rows are a few dozen features wide.
const MaxRowFeatures = 4096

// Error codes carried by FrameError payloads.
const (
	ErrCodeBadRequest   uint16 = 1
	ErrCodeOverloaded   uint16 = 2
	ErrCodeModelVersion uint16 = 3
	ErrCodeServer       uint16 = 4
)

// requestRowFixed is the per-job byte cost before the bin columns
// (template hash + arrival clock).
const requestRowFixed = 4 + 8

// requestHeadSize is the place-request payload preamble, before the
// optional trace-ID extension.
const requestHeadSize = 4 + 4 + 2 + 2

// reqFlagTraceID marks a place-request payload whose preamble is
// followed by a u64 trace ID.
const reqFlagTraceID uint16 = 1

// responseHeadSize is the place-response payload preamble.
const responseHeadSize = 4 + 4

// decisionSize is the packed per-decision byte cost.
const decisionSize = 4

// beginFrame appends a frame header with a length placeholder and
// returns the frame's start offset for endFrame.
func beginFrame(dst []byte, ft FrameType) ([]byte, int) {
	start := len(dst)
	dst = append(dst, Magic[0], Magic[1], Magic[2], Magic[3], byte(ft), 0, 0, 0, 0, 0, 0, 0)
	return dst, start
}

// endFrame patches the payload length of the frame opened at start.
func endFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start+8:start+12], uint32(len(dst)-start-HeaderSize))
	return dst
}

// AppendPlaceRequestFrame appends one complete place-request frame to
// dst and returns the extended slice. hashes and arrivals are parallel
// to rows; every row must be numFeatures wide. A nonzero traceID is
// carried in the optional trace-ID extension (payload flag bit 0); 0
// leaves it out.
func AppendPlaceRequestFrame(dst []byte, modelVersion int, numFeatures int, traceID uint64, hashes []uint32, arrivals []float64, rows [][]uint16) ([]byte, error) {
	if len(hashes) != len(rows) || len(arrivals) != len(rows) {
		return dst, fmt.Errorf("wire: %d rows, %d hashes, %d arrivals", len(rows), len(hashes), len(arrivals))
	}
	if len(rows) == 0 {
		return dst, fmt.Errorf("wire: place request has no rows")
	}
	if numFeatures <= 0 || numFeatures > MaxRowFeatures {
		return dst, fmt.Errorf("wire: %d features per row outside (0,%d]", numFeatures, MaxRowFeatures)
	}
	if modelVersion < 0 || int64(modelVersion) > math.MaxUint32 {
		return dst, fmt.Errorf("wire: model version %d not encodable", modelVersion)
	}
	dst, start := beginFrame(dst, FramePlaceRequest)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(modelVersion))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rows)))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(numFeatures))
	var flags uint16
	if traceID != 0 {
		flags |= reqFlagTraceID
	}
	dst = binary.LittleEndian.AppendUint16(dst, flags)
	if traceID != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, traceID)
	}
	for i, row := range rows {
		if len(row) != numFeatures {
			return dst[:start], fmt.Errorf("wire: row %d has %d features, want %d", i, len(row), numFeatures)
		}
		dst = binary.LittleEndian.AppendUint32(dst, hashes[i])
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(arrivals[i]))
		for _, b := range row {
			dst = binary.LittleEndian.AppendUint16(dst, b)
		}
	}
	return endFrame(dst, start), nil
}

// AppendPlaceResponseFrame appends one complete place-response frame to
// dst. Decision JobIDs are not encoded (responses answer rows in
// order); Category and Shard must fit their packed widths.
func AppendPlaceResponseFrame(dst []byte, modelVersion int, decisions []Decision) ([]byte, error) {
	if modelVersion < 0 || int64(modelVersion) > math.MaxUint32 {
		return dst, fmt.Errorf("wire: model version %d not encodable", modelVersion)
	}
	dst, start := beginFrame(dst, FramePlaceResponse)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(modelVersion))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(decisions)))
	for i := range decisions {
		d := &decisions[i]
		if d.Category < 0 || d.Category > math.MaxUint16 || d.Shard < 0 || d.Shard > math.MaxUint8 {
			return dst[:start], fmt.Errorf("wire: decision %d (category %d, shard %d) not encodable", i, d.Category, d.Shard)
		}
		var flags byte
		if d.Admit {
			flags = 1
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(d.Category))
		dst = append(dst, byte(d.Shard), flags)
	}
	return endFrame(dst, start), nil
}

// AppendErrorFrame appends one complete error frame to dst.
func AppendErrorFrame(dst []byte, code uint16, msg string) []byte {
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	dst, start := beginFrame(dst, FrameError)
	dst = binary.LittleEndian.AppendUint16(dst, code)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
	dst = append(dst, msg...)
	return endFrame(dst, start)
}

// BinaryPlaceRequest is the decoded, reusable form of a place-request
// frame. Rows alias the struct's own backing array (refilled on every
// decode), never the input buffer.
type BinaryPlaceRequest struct {
	ModelVersion int
	NumFeatures  int
	// TraceID is the request's sampled trace ID, or 0 when the frame
	// carried none (the common case — only sampled requests pay the
	// 8-byte extension).
	TraceID  uint64
	Hashes   []uint32
	Arrivals []float64
	Rows     [][]uint16
	backing  []uint16
}

// BinaryPlaceResponse is the decoded, reusable form of a place-response
// frame. Decision JobIDs are empty (the caller matches by order).
type BinaryPlaceResponse struct {
	ModelVersion int
	Decisions    []Decision
}

// DecodeFrameHeader validates a frame header and returns its type and
// payload length. maxPayload <= 0 means DefaultMaxFramePayload.
func DecodeFrameHeader(hdr []byte, maxPayload int) (FrameType, int, error) {
	if len(hdr) < HeaderSize {
		return 0, 0, fmt.Errorf("wire: frame header truncated at %d bytes", len(hdr))
	}
	if [4]byte(hdr[:4]) != Magic {
		return 0, 0, fmt.Errorf("wire: bad frame magic %q", hdr[:4])
	}
	ft := FrameType(hdr[4])
	switch ft {
	case FramePlaceRequest, FramePlaceResponse, FrameError, FrameOutcomeRequest, FrameOutcomeAck:
	default:
		return 0, 0, fmt.Errorf("wire: unknown frame type %d", hdr[4])
	}
	if hdr[5] != 0 || hdr[6] != 0 || hdr[7] != 0 {
		return 0, 0, fmt.Errorf("wire: reserved frame bits set")
	}
	if maxPayload <= 0 {
		maxPayload = DefaultMaxFramePayload
	}
	n := binary.LittleEndian.Uint32(hdr[8:12])
	if int64(n) > int64(maxPayload) {
		return 0, 0, fmt.Errorf("wire: frame payload %d exceeds limit %d", n, maxPayload)
	}
	return ft, int(n), nil
}

// DecodeFrame splits one whole frame off buf: header validation, type
// and payload. The payload aliases buf. Trailing bytes after the frame
// are rejected (HTTP bodies carry exactly one frame; streams use
// ReadFrame).
func DecodeFrame(buf []byte, maxPayload int) (FrameType, []byte, error) {
	ft, n, err := DecodeFrameHeader(buf, maxPayload)
	if err != nil {
		return 0, nil, err
	}
	if len(buf) != HeaderSize+n {
		return 0, nil, fmt.Errorf("wire: frame declares %d payload bytes, body has %d", n, len(buf)-HeaderSize)
	}
	return ft, buf[HeaderSize:], nil
}

// ReadFrame reads one frame from r into buf (grown as needed, reused
// otherwise) and returns the frame type and the payload (aliasing buf).
// io.EOF is returned untouched on a clean end-of-stream before any
// header byte.
func ReadFrame(r io.Reader, buf []byte, maxPayload int) (FrameType, []byte, []byte, error) {
	if cap(buf) < HeaderSize {
		buf = make([]byte, HeaderSize, HeaderSize+1024)
	}
	buf = buf[:HeaderSize]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			return 0, buf, nil, io.EOF
		}
		return 0, buf, nil, fmt.Errorf("wire: reading frame header: %w", err)
	}
	ft, n, err := DecodeFrameHeader(buf, maxPayload)
	if err != nil {
		return 0, buf, nil, err
	}
	if cap(buf) < HeaderSize+n {
		grown := make([]byte, HeaderSize+n)
		copy(grown, buf[:HeaderSize])
		buf = grown
	}
	buf = buf[:HeaderSize+n]
	if _, err := io.ReadFull(r, buf[HeaderSize:]); err != nil {
		return 0, buf, nil, fmt.Errorf("wire: reading %d-byte frame payload: %w", n, err)
	}
	return ft, buf, buf[HeaderSize:], nil
}

// DecodePlaceRequest parses a place-request payload into req, reusing
// its backing storage. maxBatch caps the row count (0 = no cap). Row
// counts are validated against the actual payload length before any
// allocation, so a hostile length field cannot force an over-allocation.
func DecodePlaceRequest(payload []byte, req *BinaryPlaceRequest, maxBatch int) error {
	if len(payload) < requestHeadSize {
		return fmt.Errorf("wire: place request payload truncated at %d bytes", len(payload))
	}
	version := binary.LittleEndian.Uint32(payload[0:4])
	numJobs := binary.LittleEndian.Uint32(payload[4:8])
	nf := int(binary.LittleEndian.Uint16(payload[8:10]))
	flags := binary.LittleEndian.Uint16(payload[10:12])
	if flags&^reqFlagTraceID != 0 {
		return fmt.Errorf("wire: reserved request bits set")
	}
	headSize := requestHeadSize
	var traceID uint64
	if flags&reqFlagTraceID != 0 {
		headSize += 8
		if len(payload) < headSize {
			return fmt.Errorf("wire: place request payload truncated at %d bytes", len(payload))
		}
		traceID = binary.LittleEndian.Uint64(payload[requestHeadSize:headSize])
		if traceID == 0 {
			return fmt.Errorf("wire: trace ID flag set but trace ID is zero")
		}
	}
	if numJobs == 0 {
		return fmt.Errorf("wire: place request has no rows")
	}
	if maxBatch > 0 && int64(numJobs) > int64(maxBatch) {
		return fmt.Errorf("wire: place request has %d jobs, limit is %d", numJobs, maxBatch)
	}
	if nf == 0 || nf > MaxRowFeatures {
		return fmt.Errorf("wire: %d features per row outside (0,%d]", nf, MaxRowFeatures)
	}
	stride := int64(requestRowFixed) + 2*int64(nf)
	if want := int64(headSize) + int64(numJobs)*stride; want != int64(len(payload)) {
		return fmt.Errorf("wire: place request declares %d rows x %d features (%d bytes), payload has %d",
			numJobs, nf, want, len(payload))
	}
	n := int(numJobs)
	req.ModelVersion = int(version)
	req.NumFeatures = nf
	req.TraceID = traceID
	if cap(req.Hashes) < n {
		req.Hashes = make([]uint32, n)
	}
	if cap(req.Arrivals) < n {
		req.Arrivals = make([]float64, n)
	}
	if cap(req.Rows) < n {
		req.Rows = make([][]uint16, n)
	}
	if cap(req.backing) < n*nf {
		req.backing = make([]uint16, n*nf)
	}
	req.Hashes = req.Hashes[:n]
	req.Arrivals = req.Arrivals[:n]
	req.Rows = req.Rows[:n]
	req.backing = req.backing[:n*nf]
	off := headSize
	for i := 0; i < n; i++ {
		req.Hashes[i] = binary.LittleEndian.Uint32(payload[off:])
		req.Arrivals[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off+4:]))
		row := req.backing[i*nf : (i+1)*nf]
		for f := 0; f < nf; f++ {
			row[f] = binary.LittleEndian.Uint16(payload[off+requestRowFixed+2*f:])
		}
		req.Rows[i] = row
		off += int(stride)
	}
	return nil
}

// DecodePlaceResponse parses a place-response payload into resp,
// reusing its Decisions storage. maxBatch caps the decision count
// (0 = no cap).
func DecodePlaceResponse(payload []byte, resp *BinaryPlaceResponse, maxBatch int) error {
	if len(payload) < responseHeadSize {
		return fmt.Errorf("wire: place response payload truncated at %d bytes", len(payload))
	}
	version := binary.LittleEndian.Uint32(payload[0:4])
	count := binary.LittleEndian.Uint32(payload[4:8])
	if maxBatch > 0 && int64(count) > int64(maxBatch) {
		return fmt.Errorf("wire: place response has %d decisions, limit is %d", count, maxBatch)
	}
	if want := int64(responseHeadSize) + int64(count)*decisionSize; want != int64(len(payload)) {
		return fmt.Errorf("wire: place response declares %d decisions (%d bytes), payload has %d",
			count, want, len(payload))
	}
	n := int(count)
	resp.ModelVersion = int(version)
	if cap(resp.Decisions) < n {
		resp.Decisions = make([]Decision, n)
	}
	resp.Decisions = resp.Decisions[:n]
	off := responseHeadSize
	for i := 0; i < n; i++ {
		d := &resp.Decisions[i]
		d.JobID = ""
		d.Category = int(binary.LittleEndian.Uint16(payload[off:]))
		d.Shard = int(payload[off+2])
		flags := payload[off+3]
		if flags&^1 != 0 {
			return fmt.Errorf("wire: decision %d has reserved flags %#x", i, flags)
		}
		d.Admit = flags&1 != 0
		d.ModelVersion = int(version)
		off += decisionSize
	}
	return nil
}

// DecodeError parses an error payload.
func DecodeError(payload []byte) (uint16, string, error) {
	if len(payload) < 4 {
		return 0, "", fmt.Errorf("wire: error payload truncated at %d bytes", len(payload))
	}
	code := binary.LittleEndian.Uint16(payload[0:2])
	msgLen := int(binary.LittleEndian.Uint16(payload[2:4]))
	if 4+msgLen != len(payload) {
		return 0, "", fmt.Errorf("wire: error payload declares %d message bytes, has %d", msgLen, len(payload)-4)
	}
	return code, string(payload[4:]), nil
}
