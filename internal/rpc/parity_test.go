package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpc/wire"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// parityConn is one transport as the parity table drives it: whole
// operations through the public API, and single raw round trips through
// the same unexported exchange the client's retry loop uses.
type parityConn struct {
	c      *Client
	s      *StreamSession // stream row only
	pooled bool           // Place on the binary codec: the client's own idle sessions
	op     operation
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
	if p.pooled {
		// The session the row's places travel on, and go on travelling on.
		if p.s = p.c.takeIdle(); p.s == nil {
			t.Fatal("no idle session after a pooled place")
		}
		defer p.c.putIdle(p.s)
	}
	if p.s != nil {
		p.s.sc.frame = append(p.s.sc.frame[:0], raw...)
		rep, err = p.s.exchange(context.Background(), p.op)
	} else {
		rep, err = p.c.exchange(context.Background(), p.op, &clientScratch{frame: raw})
	}
	if err != nil {
		t.Fatalf("round trip broke the transport: %v", err)
	}
	return rep
}

// checkCountsAgree asserts that the daemon's request counts are its
// endpoint histograms' own, in Stats and on one /varz page: a place or
// an outcome counted anywhere is counted once.
func checkCountsAgree(t *testing.T, d *Daemon) {
	t.Helper()
	if st := d.Stats(); st.PlaceRequests != st.PlaceJSON+st.PlaceBinary {
		t.Errorf("stats count %d places as %d json + %d binary", st.PlaceRequests, st.PlaceJSON, st.PlaceBinary)
	}
	resp, err := http.Get(d.BaseURL() + wire.PathVarz)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	vars := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if k, v, ok := strings.Cut(line, " "); ok {
			vars[k] = v
		}
	}
	for hist, total := range map[string]string{
		"rpc_place_json_latency_ns_count":   "rpc_place_json_total",
		"rpc_place_binary_latency_ns_count": "rpc_place_binary_total",
		"rpc_outcome_latency_ns_count":      "rpc_outcome_requests",
	} {
		if vars[hist] == "" || vars[hist] != vars[total] {
			t.Errorf("/varz reads %s %q beside %s %q", hist, vars[hist], total, vars[total])
		}
	}
}

// TestTransportParity is the one table for what the two transports must
// agree on. Rows are the transports, the stream twice: a session the
// caller holds, and Client.Place on the binary codec over the client's
// pooled ones. Each runs the same columns against its own fresh daemon:
// success, a refused request, a stale model version, a shed, a daemon
// restart. The rows must decide every batch alike, and the frame rows
// must also count the sequence identically on the client.
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
		pooled bool
		op     operation
		// What one served batch adds to the daemon's counters.
		json, binary int64
		bad          func(t *testing.T, d *Daemon) map[string][]byte
		valid        func(t *testing.T, d *Daemon) []byte
	}{
		{
			name: "json", codec: CodecJSON, op: operation{method: http.MethodPost, path: wire.PathPlace}, json: 1,
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
			name: "stream", codec: CodecBinary, stream: true, op: opPlace, binary: 1,
			bad: badFrames, valid: validFrame,
		},
		{
			name: "pooled-stream", codec: CodecBinary, pooled: true, op: opPlace, binary: 1,
			bad: badFrames, valid: validFrame,
		},
	}

	// What each frame row's client counted up to the shed column, whose
	// retry count is a matter of timing, and what every row decided after
	// the publish and after the restart.
	counted := map[string]ClientStats{}
	decided := map[string][]wire.Decision{}
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
			p := parityConn{c: c, pooled: row.pooled, op: row.op}
			if row.stream {
				if p.s, err = c.OpenStream(context.Background()); err != nil {
					t.Fatal(err)
				}
				defer p.s.Close()
			}
			onStream := row.stream || row.pooled
			delta := func(before DaemonStats) DaemonStats {
				a := d.Stats()
				a.PlaceRequests -= before.PlaceRequests
				a.PlaceJobs -= before.PlaceJobs
				a.PlaceJSON -= before.PlaceJSON
				a.PlaceBinary -= before.PlaceBinary
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
				dl.PlaceJSON != row.json || dl.PlaceBinary != row.binary {
				t.Errorf("one %d-job place counted %d requests / %d jobs / %d json / %d binary, want 1 / %d / %d / %d",
					len(jobs), dl.PlaceRequests, dl.PlaceJobs, dl.PlaceJSON, dl.PlaceBinary,
					len(jobs), row.json, row.binary)
			}

			// A request that is itself wrong: the client is blamed, once,
			// the daemon is not, no row reaches the core, and the session
			// or connection carries the next batch.
			for name, raw := range row.bad(t, d) {
				before, submitted := d.Stats(), d.ServeStats().Submitted
				rep := p.send(t, raw)
				if rep.code != wire.ErrCodeBadRequest || (!onStream && rep.status != http.StatusBadRequest) {
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
			decided[row.name] = got
			if row.codec == CodecBinary {
				if st := c.binState.Load(); st == nil || st.version != 2 {
					t.Errorf("client bin state not refreshed to v2: %+v", st)
				}
				if dl := delta(before); dl.BadRequests != 1 || dl.PlaceRequests != 1 {
					t.Errorf("stale place counted %d refusals / %d places, want 1 / 1", dl.BadRequests, dl.PlaceRequests)
				}
				counted[row.name] = c.Stats()
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
			if rep.code != wire.ErrCodeOverloaded || (!onStream && rep.status != http.StatusTooManyRequests) {
				t.Errorf("saturated daemon answered code %d status %d, want overloaded", rep.code, rep.status)
			}
			if dl := delta(before); dl.Shed != 1 || dl.BadRequests != 0 || dl.ServerErrors != 0 {
				t.Errorf("one shed counted %d shed / %d bad requests / %d server errors, want 1 / 0 / 0",
					dl.Shed, dl.BadRequests, dl.ServerErrors)
			}
			// The timer releases through its own copy of the admission:
			// the restart step below reassigns d while it may still run.
			adm := d.place
			release := time.AfterFunc(20*time.Millisecond, func() {
				for i := 0; i < slots; i++ {
					adm.release()
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
			if row.pooled {
				// One session carried the whole row, refusals included.
				if got := d.Stats().StreamSessions; got != 1 {
					t.Errorf("the pooled row opened %d stream sessions, want 1", got)
				}
			}

			// Restart: the daemon dies and comes back on its address with
			// every connection gone. A caller that holds a session (or a
			// keep-alive connection) opens another; the pooled row's parked
			// session shows dead on its next use and the batch is re-sent
			// once on a fresh one, at no failure to the caller.
			checkCountsAgree(t, d)
			addr := d.Addr()
			if err := d.Kill(); err != nil {
				t.Fatalf("kill: %v", err)
			}
			d, err = NewDaemon(reg, "w", fx.cm, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Start(addr); err != nil {
				t.Fatalf("restart on %s: %v", addr, err)
			}
			defer d.Kill()
			c.rt.CloseIdleConnections()
			if row.stream {
				if _, err := p.place(jobs[:4]); !errors.Is(err, ErrStreamBroken) {
					t.Errorf("held session across a restart: %v, want a broken stream", err)
				}
				if p.s, err = c.OpenStream(context.Background()); err != nil {
					t.Fatal(err)
				}
				defer p.s.Close()
			}
			cs = c.Stats()
			got, err = p.place(jobs[:4])
			if err != nil {
				t.Fatalf("place after the restart: %v", err)
			}
			if after := c.Stats(); after.Failures != cs.Failures || after.Requests != cs.Requests+1 {
				t.Errorf("client stats %+v -> %+v across the restart, want one more request and no failure", cs, after)
			}
			if st := d.Stats(); st.PlaceRequests != 1 || (onStream && st.StreamSessions != 1) {
				t.Errorf("restarted daemon served %d places over %d sessions, want 1 (over 1)", st.PlaceRequests, st.StreamSessions)
			}
			checkCountsAgree(t, d)
			decided[row.name] = append(decided[row.name], got...)
		})
	}
	for name, cs := range counted {
		if cs != counted["stream"] {
			t.Errorf("%s counted the sequence %+v, stream %+v", name, cs, counted["stream"])
		}
	}
	for name, ds := range decided {
		if !reflect.DeepEqual(ds, decided["json"]) {
			t.Errorf("%s decided the batches after the publish and the restart\n  %+v\njson\n  %+v", name, ds, decided["json"])
		}
	}
}

// TestHotSwapKeepsShedBudget pins the two retry budgets apart for a frame
// place (on a held session, on Place's pooled ones): a schema refresh
// after a hot swap must not spend a shed retry. The operation meets a
// retired version first (stale-version frame, refresh), then a daemon
// that sheds everything; all MaxRetries shed retries must still be there
// to spend, both must count the operation identically, and the refusal
// names the transport it came by.
func TestHotSwapKeepsShedBudget(t *testing.T) {
	fx := testFixture(t)
	const maxRetries = 3
	var stats []ClientStats
	for _, held := range []bool{true, false} {
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
		p := parityConn{c: c, pooled: !held}
		if held {
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
			t.Fatalf("held=%v: place surfaced %v, want an *Error with the overloaded code", held, err)
		}
		if refused.Op != "stream place" {
			t.Errorf("refusal names operation %q, want %q", refused.Op, "stream place")
		}
		d.place.release()
		cs := c.Stats()
		// 2 places + the first schema fetch + the refresh; 1 + maxRetries sheds.
		want := ClientStats{Requests: 4, Sheds: maxRetries + 1, Retries: maxRetries, Failures: 1}
		if cs != want {
			t.Errorf("held=%v: client stats %+v, want %+v", held, cs, want)
		}
		stats = append(stats, cs)
	}
	if stats[0] != stats[1] {
		t.Errorf("a held and a pooled session count the same operation differently: %+v", stats)
	}
}

// observed is one outcome as the daemon hands it to its observer.
type observed struct {
	job trace.Job
	o   sim.Outcome
}

// outcomeLog is an outcome observer that keeps a copy of every job and
// outcome it is handed, in order.
type outcomeLog struct {
	mu  sync.Mutex
	got []observed
}

func (l *outcomeLog) Observe(j *trace.Job, o sim.Outcome) {
	l.mu.Lock()
	l.got = append(l.got, observed{*j, o})
	l.mu.Unlock()
}

func (l *outcomeLog) snapshot() []observed {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]observed(nil), l.got...)
}

// TestOutcomeParity is the feedback half of the transport table. Rows
// are the two outcome shells as a client reaches them: JSON over HTTP,
// and frames on a pooled stream session (the binary-codec client against
// a daemon that advertises them). Each row drives the same place and
// outcome sequence against its own fresh daemon with an outcome log
// attached; everything the feedback touches must come out equal, and the
// refusals must carry the same codes and cost the same retries.
func TestOutcomeParity(t *testing.T) {
	fx := testFixture(t)
	jobs, following := fx.jobs[:48], fx.jobs[48:96]
	ctx := context.Background()
	outcomeFor := func(i int, admit bool) sim.Outcome {
		o := sim.Outcome{WantedSSD: admit, SpilledAt: -1, EvictedAt: -1}
		if admit {
			o.FracOnSSD = 1
			if i%3 == 0 { // a spill, so the controller has something to react to
				o.FracOnSSD, o.SpilledAt = 0.5, jobs[i].ArrivalSec+jobs[i].LifetimeSec/2
			}
		}
		return o
	}

	type result struct {
		observations, outcomes int64
		observed               []observed
		next                   []wire.Decision
		shed                   ClientStats
	}
	var results []result
	for _, row := range []struct {
		codec    string
		op       operation
		sessions int64 // stream sessions the whole row may open
	}{
		{CodecJSON, operation{method: http.MethodPost, path: wire.PathOutcome}, 0},
		{CodecBinary, opOutcome, 1},
	} {
		t.Run(row.codec, func(t *testing.T) {
			cfg := testConfig()
			seen := &outcomeLog{}
			cfg.OutcomeObserver = seen
			cfg.MaxInFlightOutcome = 2
			cfg.QueueDeadline = 0
			d := startDaemon(t, fx.newRegistry(t), cfg)
			ccfg := DefaultClientConfig(d.BaseURL())
			ccfg.Codec = row.codec
			ccfg.MaxRetries = 3
			ccfg.RetryBackoff = time.Millisecond
			c, err := NewClient(ccfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			// The same feedback, and everything downstream of it.
			ds, err := c.Place(ctx, jobs)
			if err != nil {
				t.Fatal(err)
			}
			for i, j := range jobs {
				if err := c.Observe(ctx, j, ds[i].Category, outcomeFor(i, ds[i].Admit)); err != nil {
					t.Fatalf("observe %d: %v", i, err)
				}
			}
			// No wait: an acked outcome is an applied one.
			observations := d.ServeStats().Observations
			next, err := c.Place(ctx, following)
			if err != nil {
				t.Fatal(err)
			}
			res := result{
				observations: observations,
				outcomes:     d.Stats().OutcomeRequests,
				observed:     seen.snapshot(),
				next:         next,
			}
			if res.outcomes != int64(len(jobs)) || int64(len(res.observed)) != res.outcomes || res.observations != res.outcomes {
				t.Errorf("daemon counted %d outcomes, its controllers %d and the log %d, want %d", res.outcomes, res.observations, len(res.observed), len(jobs))
			}

			// A request that is itself wrong. Through the public API it is a
			// typed bad request on both rows (the frame client refuses it
			// before sending, as it does an invalid job on the place path).
			good := outcomeFor(1, true)
			bad := good
			bad.FracOnSSD = 1.5
			var refused *Error
			if err := c.Observe(ctx, jobs[0], 0, bad); !errors.As(err, &refused) || refused.Code != wire.ErrCodeBadRequest {
				t.Errorf("frac_on_ssd 1.5 surfaced %v, want an *Error with the bad-request code", err)
			}
			// Sent raw, past the client's own check, the daemon refuses it
			// once, serves nothing, and the connection or session carries on.
			frames := row.codec == CodecBinary
			p := parityConn{c: c, op: row.op}
			if frames {
				if p.s = c.takeIdle(); p.s == nil {
					t.Fatal("no idle session after 48 frame outcomes")
				}
			}
			// A job float that is not finite is the other request that is
			// itself wrong. JSON cannot spell one (1e999 is as close as a
			// body gets); a frame carries the bits, so the check is the
			// pipeline's, and the verdict must match.
			nonFinite := *jobs[0]
			nonFinite.History.AvgSizeBytes = math.Inf(1)
			if err := c.Observe(ctx, &nonFinite, 0, good); err == nil {
				t.Error("a job with an infinite history float was accepted")
			}
			raw := func(j *trace.Job, o sim.Outcome) []byte {
				req := wire.OutcomeRequest{Job: j, Outcome: wire.OutcomeOf(o)}
				if frames {
					b, err := wire.AppendOutcomeFrame(nil, 0, &req)
					if err != nil {
						t.Fatal(err)
					}
					return b
				}
				spelled := *j
				if j == &nonFinite {
					spelled.History.AvgSizeBytes = 424242
				}
				req.Job = &spelled
				b, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				return bytes.Replace(b, []byte(`"avg_size_bytes":424242`), []byte(`"avg_size_bytes":1e999`), 1)
			}
			before := d.Stats()
			for name, body := range map[string][]byte{"frac_on_ssd 1.5": raw(jobs[0], bad), "infinite job float": raw(&nonFinite, good)} {
				st := d.Stats()
				if rep := p.send(t, body); rep.code != wire.ErrCodeBadRequest {
					t.Errorf("raw %s refused with code %d status %d (%s), want a bad request", name, rep.code, rep.status, rep.msg)
				}
				if now := d.Stats(); now.BadRequests != st.BadRequests+1 || now.OutcomeRequests != st.OutcomeRequests || now.ServerErrors != st.ServerErrors {
					t.Errorf("raw %s moved the counters %+v -> %+v, want one more bad request only", name, st, now)
				}
			}
			if got := len(seen.snapshot()); int64(got) != res.outcomes {
				t.Errorf("the log saw %d outcomes, %d before the refusals", got, res.outcomes)
			}

			// Saturated admission: every attempt sheds, the retry budget is
			// spent, and both shells count the operation identically.
			for i := 0; i < cfg.MaxInFlightOutcome; i++ {
				if !d.outcome.acquire(ctx) {
					t.Fatal("could not fill the outcome slots")
				}
			}
			if rep := p.send(t, raw(jobs[0], good)); rep.code != wire.ErrCodeOverloaded {
				t.Errorf("saturated daemon answered code %d status %d, want overloaded", rep.code, rep.status)
			}
			if p.s != nil {
				c.putIdle(p.s)
			}
			cs := c.Stats()
			if err := c.Observe(ctx, jobs[0], 0, good); !errors.As(err, &refused) || refused.Code != wire.ErrCodeOverloaded {
				t.Errorf("observe against held slots surfaced %v, want an *Error with the overloaded code", err)
			}
			after := c.Stats()
			res.shed = ClientStats{after.Requests - cs.Requests, after.Sheds - cs.Sheds, after.Retries - cs.Retries, after.Failures - cs.Failures}
			if want := (ClientStats{Requests: 1, Sheds: 4, Retries: 3, Failures: 1}); res.shed != want {
				t.Errorf("shed outcome counted %+v, want %+v", res.shed, want)
			}
			if got := d.Stats().Shed - before.Shed; got != 5 {
				t.Errorf("daemon counted %d sheds, want 5", got)
			}
			for i := 0; i < cfg.MaxInFlightOutcome; i++ {
				d.outcome.release()
			}
			if err := c.Observe(ctx, jobs[0], 0, good); err != nil {
				t.Errorf("observe after the refusals: %v", err)
			}
			if got := d.Stats().StreamSessions; got != row.sessions {
				t.Errorf("row opened %d stream sessions, want %d: refusals must not cost a session", got, row.sessions)
			}
			checkCountsAgree(t, d)
			results = append(results, res)
		})
	}
	if len(results) != 2 {
		return
	}
	a, b := results[0], results[1]
	if a.observations != b.observations || a.outcomes != b.outcomes {
		t.Errorf("json and frames disagree: %d/%d observations, %d/%d outcome requests", a.observations, b.observations, a.outcomes, b.outcomes)
	}
	if !reflect.DeepEqual(a.observed, b.observed) {
		t.Errorf("outcome logs disagree:\njson   %+v\nframes %+v", a.observed, b.observed)
	}
	if !reflect.DeepEqual(a.next, b.next) {
		t.Error("the place batch after the feedback was decided differently: the controllers saw different outcomes")
	}
	if a.shed != b.shed {
		t.Errorf("json and frames count a shed outcome differently: %+v vs %+v", a.shed, b.shed)
	}
}
