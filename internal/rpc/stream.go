package rpc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"syscall"
	"time"

	"repro/internal/rpc/wire"
	"repro/internal/trace"
)

// ErrStreamBroken marks a stream session poisoned by a transport or
// protocol failure: the daemon died mid-frame (connection reset), was
// killed between frames (clean EOF on a blocked read), or broke the
// framing. The session is unusable; callers match with errors.Is,
// reroute the batch to another node (as internal/router does) and open
// a new session. A session the caller Closed itself reports a plain
// error, not this one.
var ErrStreamBroken = errors.New("rpc: stream session broken")

// StreamSession is one persistent binary placement stream: a single
// connection upgraded via POST /v1/stream, carrying length-prefixed
// place frames in both directions — no per-batch HTTP overhead, no
// per-batch connection work. Obtain one with Client.OpenStream. (The
// client's own Place and Observe frames travel on sessions of the same
// kind that it opens and parks itself; see Client.onSession.)
//
// A session is NOT safe for concurrent use: it owns one connection and
// one set of scratch buffers, and frames are matched to responses by
// order. Open one session per submitting goroutine.
type StreamSession struct {
	c      *Client
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	sc     clientScratch
	closed bool
	broken bool
	// deadOnUse marks a break that shows the connection had died before
	// the request: the write failed short of a deadline, or the read
	// ended (closed, reset) before one reply byte. No daemon that still
	// holds this connection has the frame. A timeout or a garbled reply
	// is not that: the daemon may be applying the frame right now.
	deadOnUse bool
}

// OpenStream dials the daemon and upgrades the connection to the
// binary streaming mode, fetching the bin schema first if the client
// has none. It fails if the fetch does (streaming has no JSON fallback —
// use Place).
func (c *Client) OpenStream(ctx context.Context) (*StreamSession, error) {
	if _, err := c.binaryState(ctx); err != nil {
		return nil, err
	}
	host, ok := strings.CutPrefix(c.cfg.BaseURL, "http://")
	if !ok {
		return nil, fmt.Errorf("rpc: streaming supports http:// base URLs, got %q", c.cfg.BaseURL)
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", host)
	if err != nil {
		return nil, fmt.Errorf("rpc: dialing stream: %w", err)
	}
	s := &StreamSession{
		c:    c,
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
	}
	_ = conn.SetDeadline(c.attemptDeadline(ctx))
	if err := s.handshake(host); err != nil {
		_ = conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	return s, nil
}

// attemptDeadline is when one attempt on a session's connection gives
// up: RequestTimeout from now, or the context's deadline if that is
// sooner, as context.WithTimeout bounds an attempt over HTTP.
func (c *Client) attemptDeadline(ctx context.Context) time.Time {
	deadline := time.Now().Add(c.cfg.RequestTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	return deadline
}

// handshake sends the upgrade request and consumes the 101 response.
func (s *StreamSession) handshake(host string) error {
	_, err := fmt.Fprintf(s.bw, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Length: 0\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		wire.PathStream, host, wire.ContentTypeBinary)
	if err == nil {
		err = s.bw.Flush()
	}
	if err != nil {
		return fmt.Errorf("rpc: stream upgrade: %w", err)
	}
	status, err := s.br.ReadString('\n')
	if err != nil {
		return fmt.Errorf("rpc: stream upgrade: reading status: %w", err)
	}
	if !strings.Contains(status, " 101 ") {
		return fmt.Errorf("rpc: stream upgrade refused: %s", strings.TrimSpace(status))
	}
	// Consume response headers up to the blank line; frames follow.
	for {
		line, err := s.br.ReadString('\n')
		if err != nil {
			return fmt.Errorf("rpc: stream upgrade: reading headers: %w", err)
		}
		if line == "\r\n" || line == "\n" {
			return nil
		}
	}
}

// Place requests decisions for a batch of jobs over the stream, in
// order. Client-side feature extraction and binning, and the retry
// loop (Client.run), are those of Client.Place, which runs this on a
// pooled session: a stale-version error frame (hot swap) refreshes the
// bin schema and retries, and an overload error frame retries with the
// client's shed backoff. Transport errors poison the session — Close it
// and open a new one.
func (s *StreamSession) Place(ctx context.Context, jobs []*trace.Job) ([]wire.Decision, error) {
	c := s.c
	c.requests.Add(1)
	st := c.binState.Load()
	switch {
	case s.broken:
		return nil, c.count(fmt.Errorf("%w: session already failed", ErrStreamBroken))
	case s.closed:
		return nil, c.count(errors.New("rpc: stream session is closed"))
	case st == nil:
		return nil, c.count(errors.New("rpc: stream session has no bin schema"))
	}
	ds, err := c.placeFrames(ctx, s, st, nil, jobs)
	return ds, c.count(err)
}

// exchange writes the encoded request frame and reads the one frame
// that answers op: the daemon's verdict, or a transport or protocol
// failure, which poisons the session and comes back wrapped in
// ErrStreamBroken.
func (s *StreamSession) exchange(ctx context.Context, op operation) (reply, error) {
	code, msg, err := s.roundTrip(ctx, op)
	if err != nil {
		s.closed, s.broken = true, true
		_ = s.conn.Close()
		return reply{}, fmt.Errorf("%w: %v", ErrStreamBroken, err)
	}
	return reply{code: code, msg: msg}, nil
}

// roundTrip is exchange without the poisoning: the reply frame's wire
// code and message, or what broke.
func (s *StreamSession) roundTrip(ctx context.Context, op operation) (uint16, string, error) {
	_ = s.conn.SetDeadline(s.c.attemptDeadline(ctx))
	defer s.conn.SetDeadline(time.Time{})
	_, err := s.bw.Write(s.sc.frame)
	if err == nil {
		err = s.bw.Flush()
	}
	if err != nil {
		s.deadOnUse = !errors.Is(err, os.ErrDeadlineExceeded)
		return 0, "", fmt.Errorf("rpc: stream write: %w", err)
	}
	if _, err := s.br.Peek(1); err != nil {
		if err == io.EOF {
			s.deadOnUse = true
			return 0, "", errors.New("rpc: stream closed by daemon")
		}
		s.deadOnUse = errors.Is(err, syscall.ECONNRESET)
		return 0, "", fmt.Errorf("rpc: stream read: %w", err)
	}
	ft, buf, payload, err := wire.ReadFrame(s.br, s.sc.body, 0)
	s.sc.body = buf
	if err != nil {
		return 0, "", err
	}
	return decodeReplyFrame(op, ft, payload, &s.sc.bresp)
}

// decodeReplyFrame reads one daemon reply frame off a stream: the frame
// that answers op (a place's decisions into resp, an outcome's empty
// ack; code 0), or an error frame's code and message.
func decodeReplyFrame(op operation, ft wire.FrameType, payload []byte, resp *wire.BinaryPlaceResponse) (uint16, string, error) {
	switch {
	case ft == wire.FrameError:
		return wire.DecodeError(payload)
	case ft != op.answer:
		return 0, "", fmt.Errorf("unexpected frame type %d in reply to a stream %s", ft, op.name)
	case ft == wire.FramePlaceResponse:
		return 0, "", wire.DecodePlaceResponse(payload, resp, 0)
	case len(payload) != 0:
		return 0, "", fmt.Errorf("outcome ack carries %d payload bytes", len(payload))
	}
	return 0, "", nil
}

// Close shuts the stream down. Safe to call twice.
func (s *StreamSession) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.conn.Close()
}
