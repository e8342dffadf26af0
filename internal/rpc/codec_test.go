package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/rpc/wire"
	"repro/internal/serve"
)

// newCodecClient builds a client for d using the given codec.
func newCodecClient(t testing.TB, d *Daemon, codec string) *Client {
	t.Helper()
	cfg := DefaultClientConfig(d.BaseURL())
	cfg.Codec = codec
	cfg.RetryBackoff = time.Millisecond
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestCrossCodecDeterminism is the codec-equivalence contract: the same
// job stream placed through the JSON codec and through the binary
// pre-binned codec yields bit-identical decisions. Each codec gets its
// own fresh daemon because the adaptive admission controller is
// stateful — identical inputs must hit identical controller state.
func TestCrossCodecDeterminism(t *testing.T) {
	fx := testFixture(t)
	jobs := fx.jobs[:200]

	place := func(codec string) []wire.Decision {
		d := startDaemon(t, fx.newRegistry(t), testConfig())
		c := newCodecClient(t, d, codec)
		var out []wire.Decision
		// Several sequential batches so controller state evolves and
		// later decisions depend on earlier ones.
		for lo := 0; lo < len(jobs); lo += 50 {
			ds, err := c.Place(context.Background(), jobs[lo:lo+50])
			if err != nil {
				t.Fatalf("%s place: %v", codec, err)
			}
			out = append(out, ds...)
		}
		if codec == CodecBinary {
			// 4 places + the one-time /v1/model bin-schema fetch.
			if st := c.Stats(); st.Requests != 5 {
				t.Fatalf("binary client made %d requests, want 5", st.Requests)
			}
			if snap := d.Stats(); snap.PlaceBinary != 4 || snap.PlaceJSON != 0 {
				t.Fatalf("daemon counted %d binary / %d json places, want 4 / 0", snap.PlaceBinary, snap.PlaceJSON)
			}
		}
		return out
	}

	viaJSON := place(CodecJSON)
	viaBinary := place(CodecBinary)
	for i := range viaJSON {
		if viaJSON[i] != viaBinary[i] {
			t.Fatalf("decision %d diverges across codecs:\n  json:   %+v\n  binary: %+v", i, viaJSON[i], viaBinary[i])
		}
	}
	if viaJSON[0].JobID == "" {
		t.Fatal("decisions carry no job IDs")
	}
}

// TestBinaryClientFallsBackToJSONDaemon pins the compatibility story: a
// binary-preferring client against a JSON-only daemon (DisableBinary
// mimics a pre-binary build) silently latches the JSON fallback and
// keeps placing.
func TestBinaryClientFallsBackToJSONDaemon(t *testing.T) {
	fx := testFixture(t)
	cfg := testConfig()
	cfg.DisableBinary = true
	d := startDaemon(t, fx.newRegistry(t), cfg)
	c := newCodecClient(t, d, CodecBinary)

	ds, err := c.Place(context.Background(), fx.jobs[:8])
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 8 || ds[0].JobID != fx.jobs[0].ID {
		t.Fatalf("fallback place returned %d decisions (first job %q)", len(ds), ds[0].JobID)
	}
	if !c.jsonOnly.Load() {
		t.Error("client did not latch the JSON fallback")
	}
	if snap := d.Stats(); snap.PlaceBinary != 0 || snap.PlaceJSON == 0 {
		t.Errorf("daemon counted %d binary / %d json places, want 0 / >0", snap.PlaceBinary, snap.PlaceJSON)
	}
	// A second place must not probe /v1/model again — straight to JSON.
	models := d.Stats().ModelRequests
	if _, err := c.Place(context.Background(), fx.jobs[8:16]); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().ModelRequests; got != models {
		t.Errorf("latched client still probes /v1/model (%d -> %d)", models, got)
	}

	// The raw wire view of the same daemon: binary frames get 415.
	resp, err := http.Post(d.BaseURL()+wire.PathPlace, wire.ContentTypeBinary, bytes.NewReader([]byte("BYM1")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("binary frame to disabled daemon: status %d, want 415", resp.StatusCode)
	}
	// And /v1/model omits the bin schema.
	info, err := newTestClient(t, d).ModelInfo(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Binary || info.Encoder != nil || info.BinEdges != nil {
		t.Errorf("disabled daemon still advertises binary: %+v", info)
	}
}

// TestNegotiationMatrix drives the Accept/Content-Type combinations at
// the HTTP level and checks which codec answers.
func TestNegotiationMatrix(t *testing.T) {
	fx := testFixture(t)
	d := startDaemon(t, fx.newRegistry(t), testConfig())

	// Build one valid binary request frame via a binary client's state.
	c := newCodecClient(t, d, CodecBinary)
	st, err := c.binaryState(context.Background())
	if err != nil || st == nil {
		t.Fatalf("binary state: %v (st=%v)", err, st)
	}
	var sc clientScratch
	if err := encodeBinaryPlace(st, fx.jobs[:4], 0, &sc); err != nil {
		t.Fatal(err)
	}
	jsonBody := []byte(`{"jobs":[` + jobJSON(t, fx) + `]}`)

	cases := []struct {
		name        string
		contentType string
		accept      string
		body        []byte
		wantCT      string
	}{
		{"json req, no accept", "application/json", "", jsonBody, "application/json"},
		{"json req, binary accept stays json", "application/json", wire.ContentTypeBinary, jsonBody, "application/json"},
		{"binary req, binary accept", wire.ContentTypeBinary, wire.ContentTypeBinary, sc.frame, wire.ContentTypeBinary},
		{"binary req, unknown accept falls back to json", wire.ContentTypeBinary, "application/x-unknown", sc.frame, "application/json"},
		{"binary req, no accept falls back to json", wire.ContentTypeBinary, "", sc.frame, "application/json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodPost, d.BaseURL()+wire.PathPlace, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", tc.contentType)
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, tc.wantCT) {
				t.Errorf("response Content-Type %q, want %q", ct, tc.wantCT)
			}
			if tc.wantCT == wire.ContentTypeBinary {
				ft, payload, err := wire.DecodeFrame(body, 0)
				if err != nil || ft != wire.FramePlaceResponse {
					t.Fatalf("binary response: type %d err %v", ft, err)
				}
				var bresp wire.BinaryPlaceResponse
				if err := wire.DecodePlaceResponse(payload, &bresp, 0); err != nil {
					t.Fatal(err)
				}
				if len(bresp.Decisions) != 4 {
					t.Errorf("%d decisions, want 4", len(bresp.Decisions))
				}
			} else if !bytes.Contains(body, []byte(`"decisions"`)) {
				t.Errorf("JSON response missing decisions: %s", body)
			}
		})
	}
}

// jobJSON renders one fixture job as its wire JSON.
func jobJSON(t *testing.T, fx fixture) string {
	t.Helper()
	b, err := json.Marshal(fx.jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBinaryHotSwapRefresh publishes a new model version mid-flight and
// checks the 409 -> refresh -> retry loop: the client's next place
// transparently re-bins against the new schema and succeeds.
func TestBinaryHotSwapRefresh(t *testing.T) {
	fx := testFixture(t)
	reg := fx.newRegistry(t)
	d := startDaemon(t, reg, testConfig())
	c := newCodecClient(t, d, CodecBinary)

	ds, err := c.Place(context.Background(), fx.jobs[:4])
	if err != nil {
		t.Fatal(err)
	}
	if ds[0].ModelVersion != 1 {
		t.Fatalf("first place served v%d, want v1", ds[0].ModelVersion)
	}

	// Hot swap: same model object, new version number and new pinning.
	if _, err := reg.Publish("w", fx.model, 0); err != nil {
		t.Fatal(err)
	}
	waitForVersion(t, d, 2)

	ds, err = c.Place(context.Background(), fx.jobs[4:8])
	if err != nil {
		t.Fatal(err)
	}
	if ds[0].ModelVersion != 2 {
		t.Fatalf("post-swap place served v%d, want v2", ds[0].ModelVersion)
	}
	if st := c.binState.Load(); st == nil || st.version != 2 {
		t.Errorf("client bin state not refreshed to v2: %+v", st)
	}
}

// waitForVersion blocks until the daemon serves the given version (the
// registry subscription delivers swaps asynchronously).
func waitForVersion(t testing.TB, d *Daemon, version int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for d.ModelVersion() != version {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reached model version %d (at %d)", version, d.ModelVersion())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMalformedBinaryRowsAreBadRequests pins who is blamed for a frame
// that decodes but carries rows the serving model's binner could not
// have produced (right model version; wrong feature count, or a bin
// index out of range): the client. Over HTTP that is 400 with a
// bad-request error frame, over a stream a bad-request error frame on a
// session that stays usable; both count a bad request and no server
// error, so a router in front never ejects a healthy node over it.
func TestMalformedBinaryRowsAreBadRequests(t *testing.T) {
	fx := testFixture(t)
	d := startDaemon(t, fx.newRegistry(t), testConfig())
	enc, binner, version := d.srv.WireModel()
	nf := enc.NumFeatures()

	frame := func(name string, width int, mutate func(row []uint16)) []byte {
		t.Helper()
		var hashes []uint32
		var arrivals []float64
		var rows [][]uint16
		for _, j := range fx.jobs[:4] {
			row := binner.Bin(enc.Encode(j, nil), nil)[:width]
			if mutate != nil {
				mutate(row)
			}
			hashes = append(hashes, serve.TemplateHash(j))
			arrivals = append(arrivals, j.ArrivalSec)
			rows = append(rows, row)
		}
		f, err := wire.AppendPlaceRequestFrame(nil, version, width, 0, hashes, arrivals, rows)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return f
	}
	frames := map[string][]byte{
		"wrong feature count": frame("wrong feature count", nf-1, nil),
		"bin out of range":    frame("bin out of range", nf, func(row []uint16) { row[0] = 0xFFFF }),
	}

	c := newCodecClient(t, d, CodecBinary)
	s, err := c.OpenStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for name, f := range frames {
		before := d.Stats()

		req, err := http.NewRequest(http.MethodPost, d.BaseURL()+wire.PathPlace, bytes.NewReader(f))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", wire.ContentTypeBinary)
		req.Header.Set("Accept", wire.ContentTypeBinary)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s over HTTP: status %d, want 400", name, resp.StatusCode)
		}
		if ft, payload, err := wire.DecodeFrame(body, 0); err != nil || ft != wire.FrameError {
			t.Errorf("%s over HTTP: body is not an error frame (type %d, %v)", name, ft, err)
		} else if code, _, _ := wire.DecodeError(payload); code != wire.ErrCodeBadRequest {
			t.Errorf("%s over HTTP: error code %d, want bad request", name, code)
		}

		s.sc.frame = append(s.sc.frame[:0], f...)
		code, msg, err := s.exchange(context.Background())
		if err != nil {
			t.Fatalf("%s over a stream: session broke: %v", name, err)
		}
		if code != wire.ErrCodeBadRequest {
			t.Errorf("%s over a stream: error code %d (%s), want bad request", name, code, msg)
		}

		after := d.Stats()
		if got := after.BadRequests - before.BadRequests; got != 2 {
			t.Errorf("%s: counted %d bad requests, want 2", name, got)
		}
		if after.ServerErrors != before.ServerErrors {
			t.Errorf("%s: counted %d server errors, want 0", name, after.ServerErrors-before.ServerErrors)
		}
	}
	if _, err := s.Place(context.Background(), fx.jobs[:4]); err != nil {
		t.Errorf("stream unusable after bad-request frames: %v", err)
	}
	if got := d.ServeStats().Submitted; got != 4 {
		t.Errorf("%d rows reached the serving core, want only the 4 well-formed ones", got)
	}
}
