package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/router"
	"repro/internal/rpc"
	"repro/internal/rpc/wire"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestNodeURLs(t *testing.T) {
	got, err := router.ParseNodes(" 127.0.0.1:7070, http://10.0.0.2:7070 ,,")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://127.0.0.1:7070", "http://10.0.0.2:7070"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("nodeURLs = %v, want %v", got, want)
	}
	if _, err := router.ParseNodes(" ,, "); err == nil {
		t.Error("empty node list accepted")
	}
}

// TestFrontEndpoints drives the front's handler against a live 2-node
// plane: a JSON place request fans out and comes back in order,
// /healthz tracks backend health, /varz exposes the router counters.
func TestFrontEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and starts a 2-node plane")
	}
	all, plane := startPlane(t, "front-test", 11, rpc.DefaultConfig(4), 2)
	rcfg := router.DefaultConfig(plane.Members())
	rcfg.ProbeInterval = 25 * time.Millisecond
	rt, err := router.New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	f := &front{router: rt}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()

	jobs := all[:40]
	body, _ := json.Marshal(wire.PlaceRequest{Jobs: jobs})
	resp, err := http.Post(srv.URL+wire.PathPlace, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pr wire.PlaceResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(pr.Decisions) != len(jobs) {
		t.Fatalf("place: status %d, %d decisions for %d jobs", resp.StatusCode, len(pr.Decisions), len(jobs))
	}
	for i, d := range pr.Decisions {
		if d.JobID != jobs[i].ID {
			t.Fatalf("decision %d carries job %q, want %q", i, d.JobID, jobs[i].ID)
		}
	}

	// Routed feedback: every decision's outcome posts back through the
	// front and must land on a plane daemon's /v1/outcome — this is the
	// path that 404ed when the front only routed /v1/place.
	for i, d := range pr.Decisions {
		oreq := wire.OutcomeRequest{
			Job:      jobs[i],
			Category: d.Category,
			Outcome:  wire.Outcome{WantedSSD: d.Admit, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1},
		}
		ob, _ := json.Marshal(oreq)
		oresp, err := http.Post(srv.URL+wire.PathOutcome, "application/json", bytes.NewReader(ob))
		if err != nil {
			t.Fatal(err)
		}
		oresp.Body.Close()
		if oresp.StatusCode != http.StatusNoContent {
			t.Fatalf("outcome %d answered %d, want 204", i, oresp.StatusCode)
		}
	}
	var outcomeReqs int64
	for i := 0; i < 2; i++ {
		outcomeReqs += plane.Node(i).Stats().OutcomeRequests
	}
	if outcomeReqs != int64(len(jobs)) {
		t.Errorf("plane daemons saw %d outcome requests, want %d", outcomeReqs, len(jobs))
	}

	if resp, err := http.Get(srv.URL + wire.PathHealth); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with live backends: %v / %v", err, resp.Status)
	} else {
		resp.Body.Close()
	}

	vz, err := http.Get(srv.URL + wire.PathVarz)
	if err != nil {
		t.Fatal(err)
	}
	var vb bytes.Buffer
	_, _ = vb.ReadFrom(vz.Body)
	vz.Body.Close()
	for _, want := range []string{"router_batches 1", "router_jobs 40", "router_outcomes 40", `router_node{name="0",url="http://`} {
		if !strings.Contains(vb.String(), want) {
			t.Errorf("varz missing %q:\n%s", want, vb.String())
		}
	}

	// Invalid feedback: an outcome without a job answers 400 before any
	// routed call.
	resp, err = http.Post(srv.URL+wire.PathOutcome, "application/json", strings.NewReader(`{"category":0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("job-less outcome answered %d, want 400", resp.StatusCode)
	}

	// Bad request: malformed body answers 400, not a routed call.
	resp, err = http.Post(srv.URL+wire.PathPlace, "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed place answered %d, want 400", resp.StatusCode)
	}

	// Nothing but white space may follow a document, on either endpoint:
	// the bodies that answered 200 and 204 above, with a tail.
	ob, _ := json.Marshal(wire.OutcomeRequest{Job: jobs[0], Outcome: wire.Outcome{FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}})
	before := rt.Stats()
	for _, tc := range []struct{ name, path, body string }{
		{"place then garbage", wire.PathPlace, string(body) + " garbage"},
		{"two place documents", wire.PathPlace, string(body) + string(body)},
		{"outcome then garbage", wire.PathOutcome, string(ob) + " garbage"},
		{"two outcome documents", wire.PathOutcome, string(ob) + "\n" + string(ob)},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s answered %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if after := rt.Stats(); after.Batches != before.Batches || after.Outcomes != before.Outcomes || after.Failures != before.Failures {
		t.Errorf("a refused document was routed: router counters %+v -> %+v", before, after)
	}

	// A binary-codec client pointed at the front finds no /v1/model there,
	// so each operation goes as JSON and is routed like any other.
	ccfg := rpc.DefaultClientConfig(srv.URL)
	ccfg.Codec = rpc.CodecBinary
	c, err := rpc.NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ds, err := c.Place(context.Background(), jobs[:4])
	if err != nil || len(ds) != 4 {
		t.Fatalf("binary-codec place through the front: %d decisions, %v", len(ds), err)
	}
	o := sim.Outcome{WantedSSD: ds[0].Admit, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}
	if err := c.Observe(context.Background(), jobs[0], ds[0].Category, o); err != nil {
		t.Fatalf("binary-codec observe through the front: %v", err)
	}
	if after := rt.Stats(); after.Batches != before.Batches+1 || after.Outcomes != before.Outcomes+1 {
		t.Errorf("router counters %+v -> %+v, want one more batch and outcome", before, after)
	}
}

// TestFrontCrossTierTracing is the observability plane's acceptance
// path: a place request through the front on a live 2-node plane, with
// 1-in-1 sampling, must show up on the front's /tracez AND on a plane
// daemon's /tracez under the SAME trace ID — the ID the front minted at
// ingress, carried to the daemon inside the binary place frame.
func TestFrontCrossTierTracing(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and starts a 2-node plane")
	}
	dcfg := rpc.DefaultConfig(4)
	dcfg.TraceSampleEvery = 1 // trace every request on the daemons too
	jobs, plane := startPlane(t, "front-trace-test", 7, dcfg, 2)

	rt, err := router.New(router.DefaultConfig(plane.Members()))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	f := &front{
		router: rt,
		tracer: obs.NewTracer("placementfront", 1, 64),
		start:  time.Now(),
	}
	srv := httptest.NewServer(f.handler())
	defer srv.Close()

	body, _ := json.Marshal(wire.PlaceRequest{Jobs: jobs[:16]})
	resp, err := http.Post(srv.URL+wire.PathPlace, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("place answered %d, want 200", resp.StatusCode)
	}

	// Trace publication races the response (Finish runs in a defer after
	// the body is written), so poll briefly.
	fetch := func(url string) string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		_, _ = b.ReadFrom(resp.Body)
		return b.String()
	}
	var id, frontPage string
	deadline := time.Now().Add(2 * time.Second)
	for {
		frontPage = fetch(srv.URL + wire.PathTracez)
		if i := strings.Index(frontPage, "trace "); i >= 0 && len(frontPage) >= i+22 {
			id = frontPage[i+6 : i+22]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("front /tracez never showed a trace:\n%s", frontPage)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, span := range []string{"front.place", "router.dispatch"} {
		if !strings.Contains(frontPage, span) {
			t.Errorf("front trace is missing the %s span:\n%s", span, frontPage)
		}
	}

	found := false
	for !found {
		for _, url := range plane.URLs() {
			page := fetch(url + wire.PathTracez)
			if strings.Contains(page, "trace "+id) {
				found = true
				if !strings.Contains(page, "rpc.place") {
					t.Errorf("daemon trace %s has no rpc.place span:\n%s", id, page)
				}
			}
		}
		if !found && time.Now().After(deadline) {
			t.Fatalf("no plane daemon /tracez shows trace %s", id)
		}
		if !found {
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestFrontBadRequestIs400: a batch the node refuses as bad (here, over
// the daemon's MaxBatch of 4, under the front's cap) answers 400 with
// the node's message, where it used to read as a failed server (503).
// Once no node can answer, the front still says 503.
func TestFrontBadRequestIs400(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and starts a plane")
	}
	dcfg := rpc.DefaultConfig(4)
	dcfg.MaxBatch = 4
	jobs, plane := startPlane(t, "front-bad-request", 5, dcfg, 1)
	rt, err := router.New(router.DefaultConfig(plane.Members()))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := httptest.NewServer((&front{router: rt}).handler())
	defer srv.Close()

	post := func(jobs []*trace.Job) (int, string) {
		t.Helper()
		body, _ := json.Marshal(wire.PlaceRequest{Jobs: jobs})
		resp, err := http.Post(srv.URL+wire.PathPlace, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er wire.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er.Error
	}
	if status, msg := post(jobs[:4]); status != http.StatusOK {
		t.Fatalf("4 jobs answered %d (%s), want 200", status, msg)
	}
	status, msg := post(jobs[:5])
	if status != http.StatusBadRequest {
		t.Errorf("5 jobs over a MaxBatch-4 node answered %d (%s), want 400", status, msg)
	}
	if !strings.Contains(msg, "limit is 4") {
		t.Errorf("400 body %q does not carry the node's message", msg)
	}
	if st := plane.Node(0).Stats(); st.BadRequests != 1 {
		t.Errorf("node counted %d bad requests, want 1", st.BadRequests)
	}

	plane.Close()
	if status, msg := post(jobs[:4]); status != http.StatusServiceUnavailable {
		t.Errorf("place with the only node down answered %d (%s), want 503", status, msg)
	}
}

// TestPlaceResponseFraming pins how both JSON place shells, the front's
// and a daemon's, send their answer (rpc.WritePlaceJSON): a body of 64
// decisions, past what net/http buffers before it chunks, goes out with
// its Content-Length and the one JSON content type, not chunked.
func TestPlaceResponseFraming(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and starts a plane")
	}
	jobs, plane := startPlane(t, "front-framing", 3, rpc.DefaultConfig(4), 1)
	rt, err := router.New(router.DefaultConfig(plane.Members()))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := httptest.NewServer((&front{router: rt}).handler())
	defer srv.Close()

	body, _ := json.Marshal(wire.PlaceRequest{Jobs: jobs[:64]})
	for _, shell := range []struct{ name, url string }{
		{"front", srv.URL},
		{"daemon", plane.URLs()[0]},
	} {
		resp, err := http.Post(shell.url+wire.PathPlace, wire.ContentTypeJSON, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: place answered %d (%v)", shell.name, resp.StatusCode, err)
		}
		if resp.ContentLength != int64(len(got)) || resp.Header.Get("Content-Length") != strconv.Itoa(len(got)) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", shell.name, resp.Header.Get("Content-Length"), len(got))
		}
		if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeJSON {
			t.Errorf("%s: Content-Type %q, want %q", shell.name, ct, wire.ContentTypeJSON)
		}
		if resp.TransferEncoding != nil {
			t.Errorf("%s: Transfer-Encoding %q, want none", shell.name, resp.TransferEncoding)
		}
		if len(got) <= 2048 {
			t.Errorf("%s: %d-byte body is within what net/http sizes by itself", shell.name, len(got))
		}
	}
}

// startPlane trains a small model on a generated one-day trace and
// starts an n-node plane serving it under dcfg, closed when the test
// ends. It returns the trace's jobs and the plane.
func startPlane(t *testing.T, name string, seed int64, dcfg rpc.Config, n int) ([]*trace.Job, *router.Plane) {
	t.Helper()
	gcfg := trace.DefaultGeneratorConfig(name, seed)
	gcfg.DurationSec = 24 * 3600
	gcfg.NumUsers = 4
	tr := trace.NewGenerator(gcfg).Generate()
	cm := cost.Default()
	opts := core.DefaultTrainOptions()
	opts.NumCategories = 4
	opts.GBDT.NumRounds = 3
	opts.GBDT.MaxDepth = 4
	model, err := core.TrainCategoryModel(tr.Jobs, cm, opts)
	if err != nil {
		t.Fatal(err)
	}
	src := registry.New()
	if _, err := src.Publish("m", model, 0); err != nil {
		t.Fatal(err)
	}
	plane, err := router.NewPlane(src, "m", cm, dcfg, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plane.Close)
	return tr.Jobs, plane
}
