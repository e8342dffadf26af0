package rpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rebalance"
	"repro/internal/rpc/wire"
	"repro/internal/sim"
)

// TestPlaceSingleAndBatch drives the wire protocol end to end over a
// real TCP listener: one job, then a batch, checking echo and ordering.
func TestPlaceSingleAndBatch(t *testing.T) {
	fx := testFixture(t)
	d := startDaemon(t, fx.newRegistry(t), testConfig())
	c := newTestClient(t, d)
	ctx := context.Background()

	dec, err := c.PlaceOne(ctx, fx.jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if dec.JobID != fx.jobs[0].ID {
		t.Errorf("JobID %q, want %q", dec.JobID, fx.jobs[0].ID)
	}
	if dec.Category < 0 || dec.Category >= testCategories {
		t.Errorf("category %d out of range", dec.Category)
	}
	if dec.ModelVersion != 1 {
		t.Errorf("model version %d, want 1", dec.ModelVersion)
	}

	batch := fx.jobs[1:65]
	decs, err := c.Place(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, dc := range decs {
		if dc.JobID != batch[i].ID {
			t.Fatalf("decision %d answers job %q, want %q (order lost)", i, dc.JobID, batch[i].ID)
		}
	}

	stats := d.Stats()
	if stats.PlaceRequests != 2 || stats.PlaceJobs != 65 {
		t.Errorf("daemon counted %d requests / %d jobs, want 2 / 65", stats.PlaceRequests, stats.PlaceJobs)
	}
	if got := d.ServeStats().Submitted; got != 65 {
		t.Errorf("serving core submitted %d, want 65", got)
	}
}

// TestOutcomeFeedback posts an outcome and checks the ack's promise: when
// Observe returns, the controller has it.
func TestOutcomeFeedback(t *testing.T) {
	fx := testFixture(t)
	d := startDaemon(t, fx.newRegistry(t), testConfig())
	c := newTestClient(t, d)
	ctx := context.Background()

	j := fx.jobs[0]
	dec, err := c.PlaceOne(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	o := sim.Outcome{WantedSSD: dec.Admit, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}
	if err := c.Observe(ctx, j, dec.Category, o); err != nil {
		t.Fatal(err)
	}
	if got := d.ServeStats().Observations; got != 1 {
		t.Errorf("%d observations on the controller when the post returned, want 1", got)
	}
	if got := d.Stats().OutcomeRequests; got != 1 {
		t.Errorf("outcome requests %d, want 1", got)
	}
}

// TestOutcomeObserverFeedsHeatTracker attaches a rebalance heat
// tracker as the daemon's outcome observer: networked /v1/outcome
// posts must feed it.
func TestOutcomeObserverFeedsHeatTracker(t *testing.T) {
	fx := testFixture(t)
	cfg := testConfig()
	heat := rebalance.NewHeatTracker(fx.cm, 0)
	cfg.OutcomeObserver = heat
	d := startDaemon(t, fx.newRegistry(t), cfg)
	c := newTestClient(t, d)
	ctx := context.Background()

	for _, j := range fx.jobs[:8] {
		dec, err := c.PlaceOne(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		o := sim.Outcome{WantedSSD: dec.Admit, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}
		if err := c.Observe(ctx, j, dec.Category, o); err != nil {
			t.Fatal(err)
		}
	}
	if got := heat.Stats().Observations; got != 8 {
		t.Errorf("heat tracker saw %d observations, want 8", got)
	}
	if heat.Len() == 0 {
		t.Error("heat tracker holds no workloads after feedback")
	}
}

// TestRequestValidation checks the daemon's 4xx surface: malformed
// JSON, empty and oversized batches, invalid jobs and wrong methods
// all produce typed errors and count as bad requests — none reach a
// shard.
func TestRequestValidation(t *testing.T) {
	fx := testFixture(t)
	cfg := testConfig()
	cfg.MaxBatch = 4
	d := startDaemon(t, fx.newRegistry(t), cfg)
	base := d.BaseURL()

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// Valid alone; what follows a document but white space is refused
	// (json.Decoder.Decode, which these handlers used, ignored it).
	const (
		onePlace   = `{"jobs":[{"id":"j","lifetime_sec":1,"size_bytes":1}]}`
		oneOutcome = `{"job":{"id":"j","lifetime_sec":1,"size_bytes":1},"outcome":{"frac_on_ssd":1}}`
	)
	cases := []struct {
		name, path, body string
		wantStatus       int
	}{
		{"malformed json", wire.PathPlace, "{", http.StatusBadRequest},
		{"place then garbage", wire.PathPlace, onePlace + " garbage", http.StatusBadRequest},
		{"two place documents", wire.PathPlace, onePlace + "\n" + onePlace, http.StatusBadRequest},
		{"outcome then garbage", wire.PathOutcome, oneOutcome + " garbage", http.StatusBadRequest},
		{"two outcome documents", wire.PathOutcome, oneOutcome + oneOutcome, http.StatusBadRequest},
		{"empty batch", wire.PathPlace, `{"jobs":[]}`, http.StatusBadRequest},
		{"null job", wire.PathPlace, `{"jobs":[null]}`, http.StatusBadRequest},
		{"invalid job", wire.PathPlace, `{"jobs":[{"id":""}]}`, http.StatusBadRequest},
		{"outcome without job", wire.PathOutcome, `{"outcome":{}}`, http.StatusBadRequest},
		{"outcome bad frac", wire.PathOutcome,
			`{"job":{"id":"j","lifetime_sec":1,"size_bytes":1},"outcome":{"frac_on_ssd":2}}`,
			http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, body := post(tc.path, tc.body)
		if status != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, status, tc.wantStatus, body)
		}
		var e wire.ErrorResponse
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
			t.Errorf("%s: body %q is not an ErrorResponse", tc.name, body)
		}
	}

	// Oversized batch: 5 valid jobs against MaxBatch 4.
	var sb strings.Builder
	sb.WriteString(`{"jobs":[`)
	for i := 0; i < 5; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		b, _ := json.Marshal(fx.jobs[i])
		sb.Write(b)
	}
	sb.WriteString("]}")
	if status, _ := post(wire.PathPlace, sb.String()); status != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", status)
	}

	// Wrong methods.
	if resp, err := http.Get(base + wire.PathPlace); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET place: status %d, want 405", resp.StatusCode)
		}
	}

	if bad := d.Stats().BadRequests; bad < int64(len(cases))+2 {
		t.Errorf("bad requests %d, want >= %d", bad, len(cases)+2)
	}
	if got := d.ServeStats().Submitted; got != 0 {
		t.Errorf("%d invalid jobs reached the serving core", got)
	}
	if got := d.Stats().OutcomeRequests; got != 0 {
		t.Errorf("%d invalid outcomes reached the controllers", got)
	}
}

// TestAdmissionShedAndRetry saturates a 1-slot daemon whose serving
// core holds batches for a long flush, then checks both sides of the
// contract: the daemon sheds with 429 past the queue deadline, and the
// client absorbs sheds with bounded retries until a slot frees up.
func TestAdmissionShedAndRetry(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation test with long flushes; runs in the rpc-e2e CI job")
	}
	fx := testFixture(t)
	cfg := testConfig()
	cfg.MaxInFlightPlace = 1
	cfg.QueueDeadline = 0 // shed immediately when the slot is taken
	d := startDaemon(t, fx.newRegistry(t), cfg)

	ccfg := DefaultClientConfig(d.BaseURL())
	ccfg.MaxRetries = 50
	ccfg.RetryBackoff = 2 * time.Millisecond
	c, err := NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Occupy the single place slot directly: the drain flush means a
	// lone request no longer camps in the handler for the flush
	// interval, so the test creates the contention itself.
	if !d.place.acquire(context.Background()) {
		t.Fatal("could not take the place slot")
	}
	release := time.AfterFunc(50*time.Millisecond, d.place.release)
	defer release.Stop()

	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[w] = c.PlaceOne(context.Background(), fx.jobs[w])
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}

	if shed := d.Stats().Shed; shed == 0 {
		t.Error("daemon never shed despite a 1-slot limit and 4 concurrent requests")
	}
	cs := c.Stats()
	if cs.Sheds == 0 || cs.Retries == 0 {
		t.Errorf("client saw %d sheds / %d retries, want both > 0", cs.Sheds, cs.Retries)
	}
	if cs.Failures != 0 {
		t.Errorf("client failures %d, want 0 (retries should absorb sheds)", cs.Failures)
	}
}

// TestRefusedOutcomeLeavesNoTrace pins where an outcome's trace begins:
// after admission and decode, like a place's. A sampled outcome that is
// shed, or never parses, has no span to show, and finishing an empty
// trace into the bounded /tracez ring would evict a useful one under
// exactly the overload an operator is debugging. Both shells.
func TestRefusedOutcomeLeavesNoTrace(t *testing.T) {
	fx := testFixture(t)
	cfg := testConfig()
	cfg.MaxInFlightOutcome = 1
	cfg.QueueDeadline = 0
	d := startDaemon(t, fx.newRegistry(t), cfg)
	if !d.outcome.acquire(context.Background()) {
		t.Fatal("could not take the outcome slot")
	}
	held := true
	defer func() {
		if held {
			d.outcome.release()
		}
	}()
	o := sim.Outcome{WantedSSD: true, FracOnSSD: 1, SpilledAt: -1, EvictedAt: -1}
	traced := obs.WithTrace(context.Background(), obs.NewTracer("test", 1, 4).Begin(0))

	for _, codec := range []string{CodecJSON, CodecBinary} {
		ccfg := DefaultClientConfig(d.BaseURL())
		ccfg.Codec = codec
		ccfg.MaxRetries = 0
		c, err := NewClient(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var refused *Error
		if err := c.Observe(traced, fx.jobs[0], 0, o); !errors.As(err, &refused) || refused.Code != wire.ErrCodeOverloaded {
			t.Fatalf("%s: observe against a full outcome admission surfaced %v, want a shed", codec, err)
		}
	}
	req, _ := http.NewRequest(http.MethodPost, d.BaseURL()+wire.PathOutcome, strings.NewReader("{"))
	req.Header.Set(wire.TraceHeader, "00000000000000aa")
	d.outcome.release()
	held = false
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed traced outcome answered %d, want 400", resp.StatusCode)
	}
	if st := d.Stats(); st.Shed != 2 || st.BadRequests != 1 {
		t.Errorf("daemon counted %d shed / %d bad requests, want 2 / 1", st.Shed, st.BadRequests)
	}
	if got := d.Tracer().Snapshot(); len(got) != 0 {
		t.Errorf("refused outcomes left %d traces in the ring: %+v", len(got), got)
	}
	// A served traced outcome is captured, spans and all.
	c := newCodecClient(t, d, CodecBinary)
	if err := c.Observe(traced, fx.jobs[0], 0, o); err != nil {
		t.Fatal(err)
	}
	got := d.Tracer().Snapshot()
	if len(got) != 1 || got[0].ID != obs.TraceID(traced) || len(got[0].Spans) != 2 {
		t.Errorf("served traced outcome left %+v, want one trace with queue-wait and outcome spans", got)
	}
}

// TestClientRetriesExhausted checks the failure path: a client with
// zero retries surfaces the 429 instead of looping forever.
func TestClientRetriesExhausted(t *testing.T) {
	// A bare handler that always sheds isolates the client logic.
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(wire.ErrorResponse{Error: "overloaded"})
	}))
	defer shed.Close()

	fx := testFixture(t)
	cfg := DefaultClientConfig(shed.URL)
	cfg.MaxRetries = 2
	cfg.RetryBackoff = time.Millisecond
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.PlaceOne(context.Background(), fx.jobs[0])
	if err == nil || !strings.Contains(err.Error(), "shed after 2 retries") {
		t.Fatalf("err = %v, want shed-after-retries error", err)
	}
	cs := c.Stats()
	if cs.Sheds != 3 || cs.Retries != 2 || cs.Failures != 1 {
		t.Errorf("stats %+v, want 3 sheds / 2 retries / 1 failure", cs)
	}
}

// TestModelAndHealthEndpoints checks the metadata and liveness surface,
// including the draining flip that tells load balancers to back off.
func TestModelAndHealthEndpoints(t *testing.T) {
	fx := testFixture(t)
	d := startDaemon(t, fx.newRegistry(t), testConfig())
	c := newTestClient(t, d)

	info, err := c.ModelInfo(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Workload != "w" || info.ModelVersion != 1 || info.NumCategories != testCategories || info.Shards != 4 {
		t.Errorf("model info %+v, want workload w / v1 / %d categories / 4 shards", info, testCategories)
	}
	if info.Encoder == nil || info.NumFeatures == 0 ||
		len(info.BinEdges) != info.NumFeatures || len(info.BinCards) != info.NumFeatures {
		t.Errorf("model info bin schema incomplete: %d features, %d edges, %d cards, encoder=%v",
			info.NumFeatures, len(info.BinEdges), len(info.BinCards), info.Encoder != nil)
	}

	resp, err := http.Get(d.BaseURL() + wire.PathHealth)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("healthz: %d %q, want 200 ok", resp.StatusCode, body)
	}

	// The draining flip is observable through the handler even after
	// the listener closes.
	d.draining.Store(true)
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, wire.PathHealth, nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: %d, want 503", rec.Code)
	}
	d.draining.Store(false)
}

// TestVarzEndpoint checks /varz serves the text exposition with the
// expected keys and live values.
func TestVarzEndpoint(t *testing.T) {
	fx := testFixture(t)
	d := startDaemon(t, fx.newRegistry(t), testConfig())
	c := newTestClient(t, d)
	if _, err := c.Place(context.Background(), fx.jobs[:8]); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(d.BaseURL() + wire.PathVarz)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"placementd_workload w\n",
		"placementd_model_version 1\n",
		"rpc_place_requests 1\n",
		"rpc_place_jobs 8\n",
		"serve_submitted 8\n",
		fmt.Sprintf("serve_model_bytes %d\n", fx.model.Model.ResidentBytes()),
		"serve_act 1\n", // the initial threshold: no outcome has been posted
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("varz missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(string(body), "serve_forest_bytes") {
		t.Error("varz counts the forest apart from the model that holds it")
	}
	if strings.Contains(string(body), "online_") {
		t.Error("varz exposes online counters without a learner attached")
	}
}

// TestVarzRegistryResidency: with three versions published, /varz
// counts all three and the heap their models keep, not only the
// serving version's.
func TestVarzRegistryResidency(t *testing.T) {
	fx := testFixture(t)
	reg := fx.newRegistry(t)
	for range 2 {
		if _, err := reg.Publish("w", fx.model, 0); err != nil {
			t.Fatal(err)
		}
	}
	d := startDaemon(t, reg, testConfig())
	resp, err := http.Get(d.BaseURL() + wire.PathVarz)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"placementd_model_version 3\n",
		"registry_resident_versions 3\n",
		fmt.Sprintf("registry_resident_bytes %d\n", 3*fx.model.Model.ResidentBytes()),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("varz missing %q:\n%s", want, body)
		}
	}
}

// TestConfigValidation rejects nonsense daemon parameters.
func TestConfigValidation(t *testing.T) {
	fx := testFixture(t)
	reg := fx.newRegistry(t)
	bad := []func(*Config){
		func(c *Config) { c.MaxInFlightPlace = 0 },
		func(c *Config) { c.MaxInFlightOutcome = -1 },
		func(c *Config) { c.QueueDeadline = -time.Millisecond },
		func(c *Config) { c.MaxBatch = -1 },
		func(c *Config) { c.Serve.Shards = 0 },
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		if _, err := NewDaemon(reg, "w", fx.cm, cfg); err == nil {
			t.Errorf("case %d: config accepted, want error", i)
		}
	}
	if _, err := NewDaemon(reg, "unpublished", fx.cm, testConfig()); err == nil {
		t.Error("unknown workload accepted, want error")
	}
	if subs := reg.Subscribers(); subs != 0 {
		t.Errorf("%d registry subscriptions leaked by failed constructions", subs)
	}
}

// TestClientConfigValidation rejects nonsense client parameters, each
// with a message that names what to change.
func TestClientConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		cfg  ClientConfig
		want string
	}{
		{ClientConfig{}, "BaseURL"},
		{ClientConfig{BaseURL: "localhost:1"}, "http://"},
		{ClientConfig{BaseURL: "http://h", MaxRetries: -1}, "MaxRetries"},
		{ClientConfig{BaseURL: "http://h", Codec: "xml"}, "unknown codec"},
		// Sessions dial plain TCP: frames cannot reach a TLS endpoint.
		{ClientConfig{BaseURL: "https://h", Codec: CodecBinary}, `use "` + CodecJSON + `"`},
	} {
		if _, err := NewClient(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("config %+v: error %v, want one naming %q", tc.cfg, err, tc.want)
		}
	}
	if c, err := NewClient(ClientConfig{BaseURL: "https://h", Codec: CodecJSON}); err != nil {
		t.Errorf("https with the JSON codec refused: %v", err)
	} else {
		c.Close()
	}
}

// TestBodyLimit checks MaxBodyBytes actually bounds request bodies.
func TestBodyLimit(t *testing.T) {
	fx := testFixture(t)
	cfg := testConfig()
	cfg.MaxBodyBytes = 512
	d := startDaemon(t, fx.newRegistry(t), cfg)
	big := fmt.Sprintf(`{"jobs":[%s]}`, strings.Repeat(" ", 600))
	resp, err := http.Post(d.BaseURL()+wire.PathPlace, "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body: status %d, want 400", resp.StatusCode)
	}
}
