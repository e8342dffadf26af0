// Command placementfront is the routing tier of a multi-node placement
// plane: a stateless HTTP front that spreads incoming /v1/place traffic
// across N placementd backends on a consistent-hash ring keyed by
// workload template (the same key the daemons shard on), with health
// probing, shed-aware weight decay and reroute-on-failure. Clients that
// cannot enumerate the plane themselves point at one front; clients
// that can (e.g. loadgen -nodes) embed the same internal/router and
// skip the extra hop.
//
// Endpoints: POST /v1/place (JSON), POST /v1/outcome (JSON, routed to
// the backend owning the job's template so the feedback loop survives
// the extra hop), GET /healthz (200 while at least one backend is
// healthy), GET /varz (router + per-node state, process metadata and
// per-node dispatch-latency histograms), GET /tracez (recent sampled
// request traces; the front mints trace IDs at ingress and propagates
// them to the backends, so the same ID appears on every tier's page).
//
// With -debug-addr a second listener serves net/http/pprof and expvar,
// kept off the serving port so profiling is opt-in and fire-walled
// separately.
//
// The ring is not configurable: every front and every loadgen -nodes
// deals it the same way, so any two given the same node names agree on
// which backend owns a template.
//
// Usage:
//
//	placementfront -addr 127.0.0.1:7080 -nodes 127.0.0.1:7070,127.0.0.1:7071
//	placementfront -addr 127.0.0.1:7080 -nodes n0=127.0.0.1:7070,n1=127.0.0.1:7071
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/rpc"
	"repro/internal/rpc/wire"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "placementfront:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("placementfront", flag.ContinueOnError)
	var (
		addr   = fs.String("addr", "127.0.0.1:7080", "listen address (host:port)")
		nodes  = fs.String("nodes", "", "comma-separated placementd addresses, each [name=]host:port, required; nodes are ring members by name, else by address")
		probe  = fs.Duration("probe", 250*time.Millisecond, "backend health-probe interval")
		drain  = fs.Duration("drain", 10*time.Second, "graceful drain deadline on shutdown")
		sample = fs.Int("trace-sample", 100, "trace 1 in N place requests (0 = off)")
		debug  = fs.String("debug-addr", "", "optional second listener for /debug/pprof and /debug/vars (empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *nodes == "" {
		return fmt.Errorf("-nodes is required")
	}
	urls, err := router.ParseNodes(*nodes)
	if err != nil {
		return err
	}

	cfg := router.DefaultConfig(urls)
	cfg.ProbeInterval = *probe
	r, err := router.New(cfg)
	if err != nil {
		return err
	}
	defer r.Close()

	front := &front{
		router: r,
		tracer: obs.NewTracer("placementfront", *sample, 0), // ring of 256 traces, the default
		start:  time.Now(),
	}
	srv := &http.Server{Addr: *addr, Handler: front.handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	fmt.Fprintf(stdout, "placementfront listening on http://%s over %d nodes\n", *addr, len(urls))
	if *debug != "" {
		ds, err := obs.StartDebugServer(*debug)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer ds.Close()
		fmt.Fprintf(stdout, "debug listener on http://%s (pprof, expvar)\n", ds.Addr())
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(stdout, "signal received, draining (deadline %s)\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	drainErr := srv.Shutdown(dctx)
	obs.WriteVars(stdout, "router", r.Stats())
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	return nil
}

// front is the HTTP routing tier over one Router.
type front struct {
	router *router.Router
	tracer *obs.Tracer
	start  time.Time
	// scratch pools *placeScratch, the per-request state of handlePlace.
	scratch sync.Pool
}

// placeScratch holds one place request's body, the jobs decoded from it
// and the encoded response.
type placeScratch struct {
	body []byte
	json wire.JSONScratch
	out  []byte
}

func (f *front) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(wire.PathPlace, f.handlePlace)
	mux.HandleFunc(wire.PathOutcome, f.handleOutcome)
	mux.HandleFunc(wire.PathHealth, f.handleHealth)
	mux.HandleFunc(wire.PathVarz, f.handleVarz)
	mux.HandleFunc(wire.PathTracez, f.tracer.ServeTracez)
	return mux
}

// handlePlace serves POST /v1/place in JSON, through the daemon's JSON
// framing and the wire codec on pooled scratch, and fans the batch out
// across the plane. The router's node clients always speak the binary
// codec, router.DefaultConfig's: binary frames on pooled stream
// sessions, pre-binning and the stale-version refresh are their
// business.
func (f *front) handlePlace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	sc, _ := f.scratch.Get().(*placeScratch)
	if sc == nil {
		sc = new(placeScratch)
	}
	// The router is done with the jobs when Place returns, and the
	// decisions share only their immutable ID strings.
	defer f.scratch.Put(sc)
	jobs, err := rpc.ReadPlaceJSON(w, r, rpc.DefaultMaxBodyBytes, rpc.DefaultMaxBatch, &sc.body, &sc.json)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Ingress owns the sampling decision: a client-propagated ID is
	// always traced, otherwise sample 1-in-N. The builder rides the
	// context so the router's dispatch goroutines and the node clients
	// record spans and forward the ID without signature churn.
	b := f.tracer.Begin(wire.TraceIDFromHeader(r.Header))
	defer b.Finish()
	ctx := obs.WithTrace(r.Context(), b)
	var placeStart time.Time
	if b != nil {
		placeStart = time.Now()
	}
	decisions, err := f.router.Place(ctx, jobs)
	if b != nil {
		b.Span("front.place", fmt.Sprintf("%d jobs", len(jobs)), placeStart, time.Since(placeStart))
	}
	if err != nil {
		writeRouteError(w, err)
		return
	}
	sc.out = append(wire.AppendPlaceResponseJSON(sc.out[:0], decisions), '\n')
	rpc.WritePlaceJSON(w, sc.out)
}

// handleOutcome serves POST /v1/outcome and routes the feedback to the
// backend that owns the job's template on the ring — the same node
// whose shard served the placement, so its learner and heat tracker see
// the outcomes for the workloads they decide. Without this route the
// feedback loop of a routed plane is severed: clients behind a front
// could place but never report back.
func (f *front) handleOutcome(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	var req wire.OutcomeRequest
	if err := rpc.ReadOutcomeJSON(w, r, rpc.DefaultMaxBodyBytes, &req); err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := req.Validate(); err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := f.router.Observe(r.Context(), req.Job, req.Category, req.Outcome.Sim()); err != nil {
		writeRouteError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleHealth serves GET /healthz: 200 while at least one backend is
// healthy, 503 otherwise (the front itself is stateless).
func (f *front) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, ns := range f.router.Nodes() {
		if ns.Healthy {
			fmt.Fprintln(w, "ok")
			return
		}
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintln(w, "no healthy backends")
}

// handleVarz serves GET /varz: process metadata, the router's and its
// node clients' counters in the shared text exposition, one line per
// backend with its health state, and each backend's dispatch-latency
// histogram.
func (f *front) handleVarz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	writeVarz(w, &varzData{
		proc:     obs.CollectProc(f.start),
		router:   f.router.Stats(),
		client:   f.router.ClientStats(),
		nodes:    f.router.Nodes(),
		dispatch: f.router.DispatchLatency(),
	})
}

// varzData is everything the front's /varz renders, gathered by the
// handler so that writeVarz is pure and a golden test can pin it.
type varzData struct {
	proc     obs.ProcSnapshot
	router   router.Stats
	client   rpc.ClientStats
	nodes    []router.NodeState
	dispatch []router.NodeDispatch
}

// writeVarz renders the front's ops page, byte-stable for fixed inputs.
func writeVarz(w io.Writer, v *varzData) {
	obs.WriteVars(w, "placementfront", v.proc)
	obs.WriteVars(w, "router", v.router)
	obs.WriteVars(w, "router_client", v.client)
	for _, ns := range v.nodes {
		healthy := 0
		if ns.Healthy {
			healthy = 1
		}
		fmt.Fprintf(w, "router_node{name=%q,url=%q} healthy=%d weight=%.2f inflight=%d\n",
			ns.Name, ns.URL, healthy, ns.Weight, ns.Inflight)
	}
	for _, nd := range v.dispatch {
		nd.Hist.WriteTextLabeled(w, "router_dispatch_latency_ns", fmt.Sprintf("{node=%q}", nd.Name))
	}
}

// writeRouteError answers a router error. A node's bad-request refusal
// reaches the client as a 400 with the node's message: the request
// itself is wrong and fails the same way on any node. Anything else
// means no node could serve it: 503.
func writeRouteError(w http.ResponseWriter, err error) {
	var re *rpc.Error
	if errors.As(err, &re) && re.Code == wire.ErrCodeBadRequest {
		writeJSONError(w, http.StatusBadRequest, re.Message)
		return
	}
	writeJSONError(w, http.StatusServiceUnavailable, err.Error())
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(wire.ErrorResponse{Error: msg})
}
