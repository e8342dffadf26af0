package rpc

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/rpc/wire"
	"repro/internal/serve"
	"repro/internal/trace"
)

// parityConn is one transport as the parity table drives it: whole
// operations through the public API, and single raw round trips through
// the same unexported exchange the client's retry loop uses.
type parityConn struct {
	c  *Client
	s  *StreamSession // stream row only
	op httpOp
}

func (p parityConn) place(jobs []*trace.Job) ([]wire.Decision, error) {
	if p.s != nil {
		return p.s.Place(context.Background(), jobs)
	}
	return p.c.Place(context.Background(), jobs)
}

// send makes one attempt with raw as the request bytes, no retries.
func (p parityConn) send(t *testing.T, raw []byte) reply {
	t.Helper()
	var rep reply
	var err error
	if p.s != nil {
		p.s.sc.frame = append(p.s.sc.frame[:0], raw...)
		rep, err = p.s.exchange(context.Background())
	} else {
		sc := &clientScratch{frame: raw}
		rep, err = p.c.exchange(context.Background(), p.op, sc)
		if err == nil && p.op.frames && rep.code != 0 {
			if ft, _, ferr := wire.DecodeFrame(sc.body, 0); ferr != nil || ft != wire.FrameError {
				t.Errorf("refusal body is not an error frame (type %d, %v)", ft, ferr)
			}
		}
	}
	if err != nil {
		t.Fatalf("round trip broke the transport: %v", err)
	}
	return rep
}

// TestTransportParity is the one table for what the three transports
// must agree on. Rows are the transports; each runs the same columns
// against its own fresh daemon: success, a refused request, a stale
// model version, a shed.
func TestTransportParity(t *testing.T) {
	fx := testFixture(t)
	jobs := fx.jobs[:48]

	// frame builds a place-request frame for jobs[:4] the way a client
	// would, then lets the caller break it: rows drop features short,
	// or mutated in place.
	frame := func(t *testing.T, d *Daemon, drop int, mutate func(row []uint16)) []byte {
		enc, binner, version := d.srv.WireModel()
		w := enc.NumFeatures() - drop
		var hashes []uint32
		var arrivals []float64
		var rows [][]uint16
		for _, j := range jobs[:4] {
			row := binner.Bin(enc.Encode(j, nil), nil)[:w]
			if mutate != nil {
				mutate(row)
			}
			hashes = append(hashes, serve.TemplateHash(j))
			arrivals = append(arrivals, j.ArrivalSec)
			rows = append(rows, row)
		}
		f, err := wire.AppendPlaceRequestFrame(nil, version, w, 0, hashes, arrivals, rows)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	badFrames := func(t *testing.T, d *Daemon) map[string][]byte {
		return map[string][]byte{
			"wrong feature count": frame(t, d, 1, nil),
			"bin out of range":    frame(t, d, 0, func(row []uint16) { row[0] = 0xFFFF }),
		}
	}
	validFrame := func(t *testing.T, d *Daemon) []byte { return frame(t, d, 0, nil) }

	rows := []struct {
		name   string
		codec  string
		stream bool
		op     httpOp
		// What one served batch adds to the daemon's counters.
		json, binary, frames int64
		bad                  func(t *testing.T, d *Daemon) map[string][]byte
		valid                func(t *testing.T, d *Daemon) []byte
	}{
		{
			name: "json", codec: CodecJSON, op: httpOp{http.MethodPost, wire.PathPlace, false}, json: 1,
			bad: func(*testing.T, *Daemon) map[string][]byte {
				return map[string][]byte{
					"invalid job": []byte(`{"jobs":[{"id":""}]}`),
					"malformed":   []byte(`{`),
				}
			},
			valid: func(t *testing.T, _ *Daemon) []byte {
				b, err := json.Marshal(wire.PlaceRequest{Jobs: jobs[:4]})
				if err != nil {
					t.Fatal(err)
				}
				return b
			},
		},
		{
			name: "http-binary", codec: CodecBinary, op: httpOp{http.MethodPost, wire.PathPlace, true}, binary: 1,
			bad: badFrames, valid: validFrame,
		},
		{
			name: "stream", codec: CodecBinary, stream: true, binary: 1, frames: 1,
			bad: badFrames, valid: validFrame,
		},
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			reg := fx.newRegistry(t)
			d := startDaemon(t, reg, testConfig())
			ccfg := DefaultClientConfig(d.BaseURL())
			ccfg.Codec = row.codec
			ccfg.MaxRetries = 50
			ccfg.RetryBackoff = time.Millisecond
			c, err := NewClient(ccfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			p := parityConn{c: c, op: row.op}
			if row.stream {
				if p.s, err = c.OpenStream(context.Background()); err != nil {
					t.Fatal(err)
				}
				defer p.s.Close()
			}
			delta := func(before metrics.RPCSnapshot) metrics.RPCSnapshot {
				a := d.Stats()
				a.PlaceRequests -= before.PlaceRequests
				a.PlaceJobs -= before.PlaceJobs
				a.PlaceJSON -= before.PlaceJSON
				a.PlaceBinary -= before.PlaceBinary
				a.StreamFrames -= before.StreamFrames
				a.Shed -= before.Shed
				a.BadRequests -= before.BadRequests
				a.ServerErrors -= before.ServerErrors
				return a
			}

			// Success: the decisions serve.SubmitBatch makes on a fresh
			// core in the same state, in order, IDs restored, counted
			// under this transport.
			ref, err := serve.New(fx.newRegistry(t), "w", fx.cm, testConfig().Serve)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			want, err := ref.SubmitBatch(jobs, nil)
			if err != nil {
				t.Fatal(err)
			}
			before := d.Stats()
			got, err := p.place(jobs)
			if err != nil {
				t.Fatalf("place: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d decisions, want %d", len(got), len(want))
			}
			for i, g := range got {
				w := wire.Decision{JobID: jobs[i].ID, Admit: want[i].Admit, Category: want[i].Category,
					ModelVersion: want[i].ModelVersion, Shard: want[i].Shard}
				if g != w {
					t.Fatalf("decision %d = %+v, serve.SubmitBatch says %+v", i, g, w)
				}
			}
			if dl := delta(before); dl.PlaceRequests != 1 || dl.PlaceJobs != int64(len(jobs)) ||
				dl.PlaceJSON != row.json || dl.PlaceBinary != row.binary || dl.StreamFrames != row.frames {
				t.Errorf("one %d-job place counted %d requests / %d jobs / %d json / %d binary / %d stream frames, want 1 / %d / %d / %d / %d",
					len(jobs), dl.PlaceRequests, dl.PlaceJobs, dl.PlaceJSON, dl.PlaceBinary, dl.StreamFrames,
					len(jobs), row.json, row.binary, row.frames)
			}

			// A request that is itself wrong: the client is blamed, once,
			// the daemon is not, no row reaches the core, and the session
			// or connection carries the next batch.
			for name, raw := range row.bad(t, d) {
				before, submitted := d.Stats(), d.ServeStats().Submitted
				rep := p.send(t, raw)
				if rep.code != wire.ErrCodeBadRequest || (!row.stream && rep.status != http.StatusBadRequest) {
					t.Errorf("%s: refused with code %d status %d (%s), want a bad request", name, rep.code, rep.status, rep.msg)
				}
				if dl := delta(before); dl.BadRequests != 1 || dl.ServerErrors != 0 || dl.PlaceRequests != 0 {
					t.Errorf("%s: counted %d bad requests / %d server errors / %d places, want 1 / 0 / 0",
						name, dl.BadRequests, dl.ServerErrors, dl.PlaceRequests)
				}
				if got := d.ServeStats().Submitted; got != submitted {
					t.Errorf("%s: %d rows reached the serving core", name, got-submitted)
				}
			}
			if _, err := p.place(jobs[:4]); err != nil {
				t.Errorf("transport unusable after refused requests: %v", err)
			}
			// Through the public API the same verdict is a typed error.
			var refused *Error
			if _, err := p.place([]*trace.Job{{ID: ""}}); !errors.As(err, &refused) || refused.Code != wire.ErrCodeBadRequest {
				t.Errorf("invalid job surfaced %v, want an *Error with the bad-request code", err)
			}

			// Stale version: a hot swap retires the client's bin schema;
			// the next place refreshes it and succeeds at the new version.
			if _, err := reg.Publish("w", fx.model, 0); err != nil {
				t.Fatal(err)
			}
			waitForVersion(t, d, 2)
			before = d.Stats()
			got, err = p.place(jobs[:4])
			if err != nil {
				t.Fatalf("post-swap place: %v", err)
			}
			if got[0].ModelVersion != 2 {
				t.Errorf("post-swap place served v%d, want v2", got[0].ModelVersion)
			}
			if row.codec == CodecBinary {
				if st := c.binState.Load(); st == nil || st.version != 2 {
					t.Errorf("client bin state not refreshed to v2: %+v", st)
				}
				if dl := delta(before); dl.BadRequests != 1 || dl.PlaceRequests != 1 {
					t.Errorf("stale place counted %d refusals / %d places, want 1 / 1", dl.BadRequests, dl.PlaceRequests)
				}
			}

			// Shed: with every slot held the daemon answers Overloaded;
			// the client's retries outlast the hold.
			slots := cap(d.place.slots)
			for i := 0; i < slots; i++ {
				if !d.place.acquire(context.Background()) {
					t.Fatal("could not fill the place slots")
				}
			}
			before = d.Stats()
			rep := p.send(t, row.valid(t, d))
			if rep.code != wire.ErrCodeOverloaded || (!row.stream && rep.status != http.StatusTooManyRequests) {
				t.Errorf("saturated daemon answered code %d status %d, want overloaded", rep.code, rep.status)
			}
			if dl := delta(before); dl.Shed != 1 || dl.BadRequests != 0 || dl.ServerErrors != 0 {
				t.Errorf("one shed counted %d shed / %d bad requests / %d server errors, want 1 / 0 / 0",
					dl.Shed, dl.BadRequests, dl.ServerErrors)
			}
			release := time.AfterFunc(20*time.Millisecond, func() {
				for i := 0; i < slots; i++ {
					d.place.release()
				}
			})
			defer release.Stop()
			cs := c.Stats()
			if _, err := p.place(jobs[:4]); err != nil {
				t.Errorf("place across a shed window: %v", err)
			}
			if after := c.Stats(); after.Sheds == cs.Sheds || after.Retries == cs.Retries || after.Failures != cs.Failures {
				t.Errorf("client stats %+v -> %+v, want sheds and retries to advance and no new failure", cs, after)
			}
		})
	}
}

// TestHotSwapKeepsShedBudget pins the two retry budgets apart on both
// frame transports: a schema refresh after a hot swap must not spend a
// shed retry. The operation meets a retired version first (409 /
// stale-version frame, refresh), then a daemon that sheds everything;
// all MaxRetries shed retries must still be there to spend, and both
// transports must count the operation identically.
func TestHotSwapKeepsShedBudget(t *testing.T) {
	fx := testFixture(t)
	const maxRetries = 3
	var stats []ClientStats
	for _, stream := range []bool{false, true} {
		reg := fx.newRegistry(t)
		cfg := testConfig()
		cfg.MaxInFlightPlace = 1
		cfg.QueueDeadline = 0
		d := startDaemon(t, reg, cfg)
		// The front takes the daemon's only place slot while the client
		// refreshes its schema, so every attempt after the refresh sheds.
		var armed atomic.Bool
		front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == wire.PathModel && armed.CompareAndSwap(true, false) {
				for !d.place.acquire(r.Context()) {
					time.Sleep(100 * time.Microsecond) // the 409's handler is still returning its slot
				}
			}
			d.Handler().ServeHTTP(w, r)
		}))
		defer front.Close()

		ccfg := DefaultClientConfig(front.URL)
		ccfg.Codec = CodecBinary
		ccfg.MaxRetries = maxRetries
		ccfg.RetryBackoff = time.Millisecond
		c, err := NewClient(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		p := parityConn{c: c}
		if stream {
			if p.s, err = c.OpenStream(context.Background()); err != nil {
				t.Fatal(err)
			}
			defer p.s.Close()
		}
		if _, err := p.place(fx.jobs[:4]); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Publish("w", fx.model, 0); err != nil {
			t.Fatal(err)
		}
		waitForVersion(t, d, 2)
		armed.Store(true)

		_, err = p.place(fx.jobs[4:8])
		var refused *Error
		if !errors.As(err, &refused) || refused.Code != wire.ErrCodeOverloaded {
			t.Fatalf("stream=%v: place surfaced %v, want an *Error with the overloaded code", stream, err)
		}
		d.place.release()
		cs := c.Stats()
		// 2 places + the first schema fetch + the refresh; 1 + maxRetries sheds.
		want := ClientStats{Requests: 4, Sheds: maxRetries + 1, Retries: maxRetries, Failures: 1}
		if cs != want {
			t.Errorf("stream=%v: client stats %+v, want %+v", stream, cs, want)
		}
		stats = append(stats, cs)
	}
	if stats[0] != stats[1] {
		t.Errorf("HTTP-binary and stream count the same operation differently: %+v vs %+v", stats[0], stats[1])
	}
}
