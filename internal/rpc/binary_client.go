package rpc

import (
	"context"
	"fmt"

	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/rpc/wire"
	"repro/internal/serve"
	"repro/internal/trace"
)

// clientBinState is the client's cached view of the daemon's active
// model: the feature encoder and lossless bin schema pinned to one
// model version. It is immutable once published; a stale-version refusal
// from the daemon (hot swap) replaces the whole struct.
type clientBinState struct {
	version int
	enc     *features.Encoder
	binner  *features.Binner
	nf      int
}

// clientScratch holds one call's buffers, pooled by the client for a
// JSON call and owned by the session for a frame: the encoded request
// (frame: a binary frame or a JSON body), the response body and, for a
// frame place, one feature row, the bin backing array, the parallel
// request columns and the decoded decisions. Steady-state placement
// reuses all of them. req is the HTTP body over frame, made on a JSON
// call's first use (see Client.exchange).
type clientScratch struct {
	req      *requestBody
	row      []float64
	backing  []uint16
	rows     [][]uint16
	hashes   []uint32
	arrivals []float64
	frame    []byte
	body     []byte
	bresp    wire.BinaryPlaceResponse
}

// binaryState returns the cached bin state, fetching it from /v1/model
// on first use.
func (c *Client) binaryState(ctx context.Context) (*clientBinState, error) {
	if st := c.binState.Load(); st != nil {
		return st, nil
	}
	return c.refreshBinState(ctx)
}

// refreshBinState re-fetches /v1/model and rebuilds the encoder and
// binner — on startup and again whenever the daemon refuses a frame as
// stale (the rows were binned against edges a hot swap retired).
func (c *Client) refreshBinState(ctx context.Context) (*clientBinState, error) {
	info, err := c.ModelInfo(ctx)
	if err != nil {
		return nil, err
	}
	if info.Encoder == nil {
		return nil, fmt.Errorf("rpc: /v1/model ships no encoder")
	}
	binner, err := features.NewBinner(info.BinEdges, info.BinCards)
	if err != nil {
		return nil, fmt.Errorf("rpc: model bin schema: %w", err)
	}
	nf := info.NumFeatures
	if binner.NumFeatures() != nf || info.Encoder.NumFeatures() != nf {
		return nil, fmt.Errorf("rpc: model schema mismatch: %d features declared, binner has %d, encoder has %d",
			nf, binner.NumFeatures(), info.Encoder.NumFeatures())
	}
	st := &clientBinState{version: info.ModelVersion, enc: info.Encoder, binner: binner, nf: nf}
	c.binState.Store(st)
	return st, nil
}

// encodeBinaryPlace fills sc with the request columns for jobs under
// st's schema and appends the complete request frame into sc.frame.
// A nonzero traceID rides in the frame's optional trace extension.
func encodeBinaryPlace(st *clientBinState, jobs []*trace.Job, traceID uint64, sc *clientScratch) error {
	n, nf := len(jobs), st.nf
	if cap(sc.backing) < n*nf {
		sc.backing = make([]uint16, n*nf)
	}
	if cap(sc.rows) < n {
		sc.rows = make([][]uint16, n)
	}
	if cap(sc.hashes) < n {
		sc.hashes = make([]uint32, n)
	}
	if cap(sc.arrivals) < n {
		sc.arrivals = make([]float64, n)
	}
	sc.rows, sc.hashes, sc.arrivals = sc.rows[:n], sc.hashes[:n], sc.arrivals[:n]
	for i, j := range jobs {
		// The checks the daemon applies to a JSON batch, with the same
		// verdict: a bad request, not a failed node.
		if j == nil {
			return &Error{Op: "place", Code: wire.ErrCodeBadRequest, Message: fmt.Sprintf("job %d is nil", i)}
		}
		if err := j.Validate(); err != nil {
			return &Error{Op: "place", Code: wire.ErrCodeBadRequest, Message: fmt.Sprintf("job %d: %v", i, err)}
		}
		// Feature extraction and binning happen here, on the client —
		// the daemon sees only bins and never touches strings.
		sc.row = st.enc.Encode(j, sc.row)
		sc.rows[i] = st.binner.Bin(sc.row, sc.backing[i*nf:i*nf:(i+1)*nf])
		sc.hashes[i] = serve.TemplateHash(j)
		sc.arrivals[i] = j.ArrivalSec
	}
	var err error
	sc.frame, err = wire.AppendPlaceRequestFrame(sc.frame[:0], st.version, nf, traceID, sc.hashes, sc.arrivals, sc.rows)
	return err
}

// placeFrames runs one frame place operation over s: extract and bin the
// jobs into the session's scratch under st's schema, drive the frame to
// its verdict, append the decisions to dst.
func (c *Client) placeFrames(ctx context.Context, s *StreamSession, st *clientBinState, dst []wire.Decision, jobs []*trace.Job) ([]wire.Decision, error) {
	sc := &s.sc
	if len(jobs) == 0 {
		return dst, &Error{Op: "place", Code: wire.ErrCodeBadRequest, Message: "place request has no jobs"}
	}
	if err := encodeBinaryPlace(st, jobs, obs.TraceID(ctx), sc); err != nil {
		return dst, err
	}
	if err := c.run(ctx, s, opPlace, sc, jobs); err != nil {
		return dst, err
	}
	if len(sc.bresp.Decisions) != len(jobs) {
		return dst, fmt.Errorf("rpc: got %d decisions for %d jobs", len(sc.bresp.Decisions), len(jobs))
	}
	// Copy out of the pooled scratch and restore the job IDs the binary
	// codec elides (responses answer rows in order).
	n := len(dst)
	dst = append(dst, sc.bresp.Decisions...)
	for i, j := range jobs {
		dst[n+i].JobID = j.ID
	}
	return dst, nil
}
