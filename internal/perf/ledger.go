package perf

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/gbdt"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/router"
	"repro/internal/rpc"
	"repro/internal/rpc/wire"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// LedgerBatches is how many seeded batches the traced pass replays
// through every cut.
const LedgerBatches = 256

// ledgerBatch is one replayed batch and what each cut left for the
// next: the ledger runs cut by cut over all batches, so every stateful
// instance sees arrivals in order.
type ledgerBatch struct {
	// g is the batch's request index in pass 0 of the replay.
	g        int
	jobs     []*trace.Job
	rows     [][]float64
	bins     [][]uint16
	unbinned [][]float64
	hashes   []uint32
	arrivals []float64
	classes  []int
	verdicts []wire.Decision
	outcomes []sim.Outcome
}

// ledgerRun is the traced pass: one submitter replays the same seeded
// batches through each nested cut of the stack, from feature encoding
// out to the router, on fresh instances of every stateful layer, and
// records one span per call. Each batch goes through every cut back to
// back before the next batch starts, so a drift in the machine's speed
// moves a cut and its steps together. It runs at GOMAXPROCS 1, where
// wall time is CPU time, so a cut's steps replayed alone cannot cost
// less than the cut by running in parallel, and residuals close.
type ledgerRun struct {
	w       Workload
	f       *Fixture
	model   *core.CategoryModel
	dir     string
	rec     *Recorder
	batches []ledgerBatch

	// cuts are replayed in order on every batch; after runs once the
	// replay is over, to read counters; closers then tear instances
	// down, last first.
	cuts    []ledgerCut
	after   []func() error
	closers []func()

	// values collects per-layer metrics by name.
	values map[string]float64
	// checked and wrong count category comparisons between cuts that
	// must agree.
	checked, wrong int64
}

// ledgerCut is one timed call into a layer.
type ledgerCut struct {
	name string
	fn   func(b *ledgerBatch) error
}

// runLedger runs the traced pass for a workload's model scale and
// request size and returns the per-layer values it measured.
func runLedger(w Workload, f *Fixture, model *core.CategoryModel, dir string, rec *Recorder) (*ledgerRun, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	l := &ledgerRun{w: w, f: f, model: model, dir: dir, rec: rec, values: map[string]float64{}}
	defer func() {
		for i := len(l.closers) - 1; i >= 0; i-- {
			l.closers[i]()
		}
	}()
	l.pickBatches()
	for _, build := range []func() error{l.pureCuts, l.serveCuts, l.rpcCuts, l.routerCuts} {
		if err := build(); err != nil {
			return nil, err
		}
	}
	for i := range l.batches {
		b := &l.batches[i]
		for _, c := range l.cuts {
			start := time.Now()
			err := c.fn(b)
			end := time.Now()
			if err != nil {
				return nil, fmt.Errorf("perf: ledger cut %s, batch %d: %w", c.name, b.g, err)
			}
			rec.Add(b.g, c.name, start, end)
		}
	}
	for _, fn := range l.after {
		if err := fn(); err != nil {
			return nil, err
		}
	}
	if err := l.offlineCuts(); err != nil {
		return nil, err
	}
	l.foldSpans()
	return l, nil
}

// pickBatches draws the seeded sample of pool batches, in arrival
// order.
func (l *ledgerRun) pickBatches() {
	n, per := LedgerBatches, l.f.Batches(l.w.batch)
	if l.f.Quick {
		n = 32
	}
	if n > per {
		n = per
	}
	picks := rand.New(rand.NewSource(l.f.Seed)).Perm(per)[:n]
	sort.Ints(picks)
	size, nf := l.w.batch, l.model.Encoder.NumFeatures()
	l.batches = make([]ledgerBatch, n)
	for i, g := range picks {
		b := &l.batches[i]
		b.g = g
		b.jobs = l.f.Pool[g*size : (g+1)*size]
		b.hashes = make([]uint32, size)
		b.arrivals = make([]float64, size)
		b.outcomes = make([]sim.Outcome, size)
		b.rows, b.bins, b.unbinned = make([][]float64, size), make([][]uint16, size), make([][]float64, size)
		for k, j := range b.jobs {
			b.hashes[k] = serve.TemplateHash(j)
			b.arrivals[k] = j.ArrivalSec
			b.rows[k], b.bins[k], b.unbinned[k] = make([]float64, nf), make([]uint16, nf), make([]float64, nf)
		}
	}
}

// cut appends one cut to the replay.
func (l *ledgerRun) cut(name string, fn func(b *ledgerBatch) error) {
	l.cuts = append(l.cuts, ledgerCut{name, fn})
}

// agree counts one batch of decisions against the categories the local
// forest predicted for it.
func (l *ledgerRun) agree(b *ledgerBatch, category func(k int) int, n int) error {
	if n != len(b.jobs) {
		return fmt.Errorf("got %d decisions for %d jobs", n, len(b.jobs))
	}
	for k := range b.jobs {
		l.checked++
		if category(k) != b.classes[k] {
			l.wrong++
		}
	}
	return nil
}

// pureCuts adds the stateless layers: features, gbdt, core and the two
// wire codecs.
func (l *ledgerRun) pureCuts() error {
	enc := l.model.Encoder
	nf := enc.NumFeatures()
	forest, err := l.model.Model.Compile()
	if err != nil {
		return fmt.Errorf("perf: ledger: %w", err)
	}
	binner, err := features.BinnerForModel(l.model.Model)
	if err != nil {
		return fmt.Errorf("perf: ledger: %w", err)
	}
	adaptive, err := core.NewAdaptive(core.DefaultAdaptiveConfig(numCategories))
	if err != nil {
		return fmt.Errorf("perf: ledger: %w", err)
	}

	before, _ := allocated()
	jobs := 0
	for i := range l.batches {
		for k, j := range l.batches[i].jobs {
			l.batches[i].rows[k] = enc.Encode(j, l.batches[i].rows[k])
			jobs++
		}
	}
	after, _ := allocated()
	l.values["features.encode_allocs_per_job"] = float64(after-before) / float64(jobs)

	l.cut("features.encode", func(b *ledgerBatch) error {
		for k, j := range b.jobs {
			b.rows[k] = enc.Encode(j, b.rows[k])
		}
		return nil
	})
	l.cut("features.bin", func(b *ledgerBatch) error {
		for k := range b.jobs {
			b.bins[k] = binner.Bin(b.rows[k], b.bins[k])
		}
		return nil
	})
	l.cut("features.unbin", func(b *ledgerBatch) error {
		for k := range b.jobs {
			b.unbinned[k] = binner.Unbin(b.bins[k], b.unbinned[k])
		}
		return nil
	})
	var scratch []float64
	l.cut("gbdt.predict", func(b *ledgerBatch) error {
		b.classes, scratch = forest.PredictClassBatch(b.unbinned, b.classes, scratch)
		return nil
	})
	one := make([]int, 1)
	l.cut("gbdt.predict_single", func(b *ledgerBatch) error {
		for k := range b.jobs {
			one, scratch = forest.PredictClassBatch(b.unbinned[k:k+1], one, scratch)
			// A row must classify the same alone as in its batch.
			l.checked++
			if one[0] != b.classes[k] {
				l.wrong++
			}
		}
		return nil
	})
	l.cut("core.admit", func(b *ledgerBatch) error {
		b.verdicts = b.verdicts[:0]
		for k, j := range b.jobs {
			admit := adaptive.Admit(b.classes[k], j.ArrivalSec)
			b.verdicts = append(b.verdicts, wire.Decision{Admit: admit, Category: b.classes[k], ModelVersion: 1})
		}
		return nil
	})
	l.cut("core.observe", func(b *ledgerBatch) error {
		for k, j := range b.jobs {
			b.outcomes[k] = seededOutcome(l.f.Seed, b.g*len(b.jobs)+k, j, b.verdicts[k].Admit)
			adaptive.Observe(sim.SpilloverFeedback(j, b.outcomes[k], l.f.Cost))
		}
		return nil
	})

	var frame, rframe []byte
	var breq wire.BinaryPlaceRequest
	var bresp wire.BinaryPlaceResponse
	var binBytes, jsonBytes int
	l.cut("wire.bin_codec", func(b *ledgerBatch) error {
		var err error
		if frame, err = wire.AppendPlaceRequestFrame(frame[:0], 1, nf, 0, b.hashes, b.arrivals, b.bins); err != nil {
			return err
		}
		_, payload, err := wire.DecodeFrame(frame, 0)
		if err != nil {
			return err
		}
		if err := wire.DecodePlaceRequest(payload, &breq, 0); err != nil {
			return err
		}
		if rframe, err = wire.AppendPlaceResponseFrame(rframe[:0], 1, b.verdicts); err != nil {
			return err
		}
		if _, payload, err = wire.DecodeFrame(rframe, 0); err != nil {
			return err
		}
		if err := wire.DecodePlaceResponse(payload, &bresp, 0); err != nil {
			return err
		}
		binBytes += len(frame) + len(rframe)
		return l.agree(b, func(k int) int { return bresp.Decisions[k].Category }, len(bresp.Decisions))
	})
	l.cut("wire.json_codec", func(b *ledgerBatch) error {
		body, err := json.Marshal(wire.PlaceRequest{Jobs: b.jobs})
		if err != nil {
			return err
		}
		var req wire.PlaceRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		rbody, err := json.Marshal(wire.PlaceResponse{Decisions: b.verdicts})
		if err != nil {
			return err
		}
		var resp wire.PlaceResponse
		if err := json.Unmarshal(rbody, &resp); err != nil {
			return err
		}
		jsonBytes += len(body) + len(rbody)
		return l.agree(b, func(k int) int { return resp.Decisions[k].Category }, len(resp.Decisions))
	})
	l.after = append(l.after, func() error {
		l.values["wire.bin_bytes_per_job"] = float64(binBytes) / float64(jobs)
		l.values["wire.json_bytes_per_job"] = float64(jsonBytes) / float64(jobs)
		return nil
	})
	return nil
}

// publish returns a fresh registry serving the ledger's model.
func (l *ledgerRun) publish() (*registry.Registry, error) {
	reg := registry.New()
	if _, err := reg.Publish(workloadKey, l.model, 0); err != nil {
		return nil, fmt.Errorf("perf: ledger: %w", err)
	}
	return reg, nil
}

// serveCuts adds the in-process serving core, one fresh server per
// submit entry.
func (l *ledgerRun) serveCuts() error {
	cfg := rpc.DefaultConfig(numCategories).Serve
	var out []serve.Decision
	for _, name := range []string{"serve.submit_encoded", "serve.submit_batch"} {
		reg, err := l.publish()
		if err != nil {
			return err
		}
		srv, err := serve.New(reg, workloadKey, l.f.Cost, cfg)
		if err != nil {
			return fmt.Errorf("perf: ledger: %w", err)
		}
		l.closers = append(l.closers, func() { _ = srv.Close() }) // nothing to recover at teardown
		encoded := name == "serve.submit_encoded"
		l.cut(name, func(b *ledgerBatch) error {
			var err error
			if encoded {
				out, err = srv.SubmitEncoded(1, b.hashes, b.arrivals, b.bins, out)
			} else {
				out, err = srv.SubmitBatch(b.jobs, out)
			}
			if err != nil {
				return err
			}
			return l.agree(b, func(k int) int { return out[k].Category }, len(out))
		})
		if !encoded {
			continue
		}
		l.cut("serve.observe", func(b *ledgerBatch) error {
			for k, j := range b.jobs {
				if err := srv.Observe(j, b.outcomes[k]); err != nil {
					return err
				}
			}
			return nil
		})
		l.after = append(l.after, func() error {
			merge(l.values, serveCounterValues(srv.Stats()))
			return nil
		})
	}
	return nil
}

// rpcCuts adds the three loopback transports, each against a fresh
// daemon, and the outcome endpoint.
func (l *ledgerRun) rpcCuts() error {
	ctx := context.Background()
	for _, t := range []struct {
		name string
		via  transport
	}{{"rpc.place_json", viaJSON}, {"rpc.place_binary", viaBinary}, {"rpc.place_stream", viaStream}} {
		reg, err := l.publish()
		if err != nil {
			return err
		}
		d, err := startDaemon(reg, l.f)
		if err != nil {
			return err
		}
		l.closers = append(l.closers, func() { stopDaemon(d) })
		client, err := newClient(d, t.via)
		if err != nil {
			return err
		}
		l.closers = append(l.closers, client.Close)
		place := client.Place
		if t.via == viaStream {
			s, err := client.OpenStream(ctx)
			if err != nil {
				return err
			}
			l.closers = append(l.closers, func() { _ = s.Close() })
			place = s.Place
		}
		l.cut(t.name, func(b *ledgerBatch) error {
			ds, err := place(ctx, b.jobs)
			if err != nil {
				return err
			}
			return l.agree(b, func(k int) int { return ds[k].Category }, len(ds))
		})
		if t.via != viaBinary {
			continue
		}
		l.cut("rpc.observe", func(b *ledgerBatch) error {
			for k, j := range b.jobs {
				if err := client.Observe(ctx, j, b.classes[k], b.outcomes[k]); err != nil {
					return err
				}
			}
			return nil
		})
		name := t.name
		l.after = append(l.after, func() error {
			merge(l.values, clientCounterValues(client.Stats()))
			p50, err := varzP50(d.BaseURL(), "rpc_place_binary_latency_ns")
			if err != nil {
				return err
			}
			l.values["obs.varz_p50_ratio"] = p50 / Median(Durations(l.rec.Spans())[name])
			return nil
		})
	}
	return nil
}

// routerCuts adds the router over a fresh 2-node plane.
func (l *ledgerRun) routerCuts() error {
	reg, err := l.publish()
	if err != nil {
		return err
	}
	plane, err := router.NewPlane(reg, workloadKey, l.f.Cost, rpc.DefaultConfig(numCategories), 2)
	if err != nil {
		return err
	}
	l.closers = append(l.closers, plane.Close)
	rtr, err := router.New(router.DefaultConfig(plane.URLs()))
	if err != nil {
		return err
	}
	l.closers = append(l.closers, rtr.Close)
	ctx := context.Background()
	l.cut("router.place", func(b *ledgerBatch) error {
		ds, err := rtr.Place(ctx, b.jobs)
		if err != nil {
			return err
		}
		return l.agree(b, func(k int) int { return ds[k].Category }, len(ds))
	})
	l.cut("router.observe", func(b *ledgerBatch) error {
		for k, j := range b.jobs {
			if err := rtr.Observe(ctx, j, b.classes[k], b.outcomes[k]); err != nil {
				return err
			}
		}
		return nil
	})
	l.after = append(l.after, func() error {
		merge(l.values, routerCounterValues(rtr, plane))
		return nil
	})
	return nil
}

// offlineCuts times the layers no serving path touches: the scenario
// suite by pipeline kind, and sim.Run with the ranking policy over the
// fixture pool.
func (l *ledgerRun) offlineCuts() error {
	start := time.Now()
	pass, err := runSuite(l.dir, l.f.Quick)
	if err != nil {
		return err
	}
	l.rec.Add(-1, "scenario.suite", start, time.Now())
	l.checked += pass.jobs
	l.wrong += pass.failedJobs
	l.values["perf.tco_savings_pct"] = pass.tcoPct
	for _, kind := range []string{"sim", "serve", "online", "fleet", "rebalance"} {
		l.values["scenario."+kind+"_s"] = pass.kindSec[kind]
	}

	pol, err := policy.NewAdaptiveRanking(l.model, l.f.Cost, core.DefaultAdaptiveConfig(numCategories))
	if err != nil {
		return fmt.Errorf("perf: ledger: %w", err)
	}
	tr := &trace.Trace{Cluster: "C0", Jobs: l.f.Pool}
	quota := 0.05 * tr.PeakSSDUsage()
	start = time.Now()
	if _, err := sim.Run(tr, pol, l.f.Cost, sim.Config{SSDQuota: quota}); err != nil {
		return fmt.Errorf("perf: ledger: %w", err)
	}
	end := time.Now()
	l.rec.Add(-1, "sim.run", start, end)
	l.values["sim.run_us_per_job"] = float64(end.Sub(start).Microseconds()) / float64(len(l.f.Pool))
	return nil
}

// cutMetrics maps a cut's span name to the metric that reports its
// median cost per job, and selfMetrics a parent cut's name to the
// metric that reports its self time.
var (
	cutMetrics = map[string]string{
		"features.encode":      "features.encode_us_per_job",
		"features.bin":         "features.bin_us_per_job",
		"features.unbin":       "features.unbin_us_per_job",
		"gbdt.predict":         "gbdt.predict_us_per_job",
		"gbdt.predict_single":  "gbdt.predict_single_us_per_job",
		"core.admit":           "core.admit_ns_per_job",
		"core.observe":         "core.observe_ns_per_job",
		"wire.bin_codec":       "wire.bin_codec_us_per_job",
		"wire.json_codec":      "wire.json_codec_us_per_job",
		"serve.submit_encoded": "serve.submit_encoded_us_per_job",
		"serve.submit_batch":   "serve.submit_batch_us_per_job",
		"serve.observe":        "serve.observe_us_per_job",
		"rpc.place_json":       "rpc.place_json_us_per_job",
		"rpc.place_binary":     "rpc.place_binary_us_per_job",
		"rpc.place_stream":     "rpc.place_stream_us_per_job",
		"rpc.observe":          "rpc.observe_us_per_job",
		"router.place":         "router.place_us_per_job",
		"router.observe":       "router.observe_us_per_job",
	}
	selfMetrics = map[string]string{
		"serve.submit_encoded": "serve.self_us_per_job",
		"rpc.place_json":       "rpc.json_self_us_per_job",
		"rpc.place_binary":     "rpc.binary_self_us_per_job",
		"rpc.place_stream":     "rpc.stream_self_us_per_job",
		"router.place":         "router.self_us_per_job",
	}
)

// foldSpans turns the recorded spans into per-job medians, self times
// and the smallest residual, as a percentage of its parent cut.
func (l *ledgerRun) foldSpans() {
	perJob := func(name string, ns float64) float64 {
		v := ns / float64(l.w.batch)
		if strings.HasSuffix(name, "ns_per_job") {
			return v
		}
		return v / 1e3
	}
	durations := Durations(l.rec.Spans())
	for cut, metric := range cutMetrics {
		l.values[metric] = perJob(metric, Median(durations[cut]))
	}
	worst := math.Inf(1)
	for parent, self := range SelfTimes(l.rec.Spans()) {
		med := Median(self)
		if metric, ok := selfMetrics[parent]; ok {
			l.values[metric] = perJob(metric, med)
		}
		if pct := 100 * med / Median(durations[parent]); pct < worst {
			worst = pct
		}
	}
	l.values["perf.ledger_residual_min_pct"] = worst
}

// merge copies src into dst.
func merge(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}

// trainTimed trains the workload's model the way a user would, with
// core.TrainCategoryModel, and separately times gbdt.TrainClassifier on
// the same labelled, encoded dataset, so the share of training that is
// label design and feature encoding shows as the difference.
func trainTimed(f *Fixture, s Scale) (model *core.CategoryModel, totalSec, gbdtSec float64, err error) {
	opts := f.TrainOptions(s)
	start := time.Now()
	model, err = core.TrainCategoryModel(f.Train, f.Cost, opts)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("perf: training: %w", err)
	}
	totalSec = time.Since(start).Seconds()
	labels := model.Labeler.Labels(f.Train, f.Cost)
	ds := model.Encoder.Dataset(f.Train)
	start = time.Now()
	if _, err := gbdt.TrainClassifier(ds, labels, opts.NumCategories, opts.GBDT); err != nil {
		return nil, 0, 0, fmt.Errorf("perf: training: %w", err)
	}
	return model, totalSec, time.Since(start).Seconds(), nil
}
