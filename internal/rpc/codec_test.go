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

// TestNegotiationMatrix drives the Accept/Content-Type combinations at
// the HTTP level: POST /v1/place speaks JSON whatever the request
// accepts, and a body that announces a frame is refused with 415 and
// pointed at /v1/stream rather than failed as a JSON document.
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
		wantStatus  int
		wantBody    string
	}{
		{"json req, no accept", "application/json", "", jsonBody, http.StatusOK, `"decisions"`},
		{"json req, binary accept stays json", "application/json", wire.ContentTypeBinary, jsonBody, http.StatusOK, `"decisions"`},
		{"binary req, binary accept", wire.ContentTypeBinary, wire.ContentTypeBinary, sc.frame, http.StatusUnsupportedMediaType, wire.PathStream},
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
			before := d.Stats()
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, body)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, wire.ContentTypeJSON) {
				t.Errorf("response Content-Type %q, want %q", ct, wire.ContentTypeJSON)
			}
			if !bytes.Contains(body, []byte(tc.wantBody)) {
				t.Errorf("response body %s, want it to contain %q", body, tc.wantBody)
			}
			refused := int64(0)
			if tc.wantStatus != http.StatusOK {
				refused = 1
			}
			if after := d.Stats(); after.BadRequests-before.BadRequests != refused || after.PlaceJSON-before.PlaceJSON != 1-refused || after.PlaceBinary != 0 {
				t.Errorf("counted %d bad requests / %d json / %d binary places, want %d / %d / 0",
					after.BadRequests-before.BadRequests, after.PlaceJSON-before.PlaceJSON, after.PlaceBinary, refused, 1-refused)
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
