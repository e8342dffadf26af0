package perf

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Procs is the GOMAXPROCS every measured phase runs at: client and
// daemon share the two cores of the box the bounds were derived on.
const Procs = 2

// An untraced run sets the system up at least minSetups times, goes on
// while the set-ups so far took under setupBudget, and stops at
// maxSetups; the last one is measured and setup_s is their median. A
// paper-scale set-up takes over 2 s and is done three times; a lite or
// offline one takes half a second, where three would leave the median
// to one slow stretch of the machine.
const (
	minSetups   = 3
	maxSetups   = 5
	setupBudget = 3 * time.Second
)

// Options selects one run.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is how long the measured phase lasts.
	Seconds float64
	// Trace selects the traced run: one set-up, the measured phase, a
	// quarter of it again at GOMAXPROCS 1, then the ledger pass; the
	// result carries the per-layer metrics instead of the end-to-end
	// ones.
	Trace bool
	// Quick shrinks the fixture, the models and the ledger for smoke
	// tests. Its numbers mean nothing.
	Quick bool
	// ScenarioDir is the scenario packages root.
	ScenarioDir string
	// TraceOut, when set, receives the ledger pass's spans as JSON
	// lines.
	TraceOut string
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run reports, in the shape of the benchmark's
// contract: its JSON encoding is the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// system is a workload's set-up system under test.
type system interface {
	// measure drives the workload for dur and returns what a client
	// saw; the caller brackets it with resource readings.
	measure(dur time.Duration) (*measured, error)
	// verify checks the outputs of the first measure call against
	// references computed locally.
	verify() (checked, wrong int64, err error)
	// layerValues returns the per-layer metrics that come from the
	// first measure call's own counters rather than from the ledger.
	layerValues() (map[string]float64, error)
	Close()
}

// setUp is one complete set-up of a workload.
type setUp struct {
	sys   system
	f     *Fixture
	model *core.CategoryModel
	// trainSec and gbdtSec time the model's training and, in a traced
	// run, the classifier's share of it.
	trainSec, gbdtSec float64
}

// newSetUp generates the fixture, trains the workload's model and
// brings its system up, warm-up included.
func newSetUp(w Workload, o Options) (*setUp, error) {
	f, err := NewFixture(o.Seed, o.Quick)
	if err != nil {
		return nil, err
	}
	s := &setUp{f: f}
	switch {
	case o.Trace:
		if s.model, s.trainSec, s.gbdtSec, err = trainTimed(f, w.Scale); err != nil {
			return nil, err
		}
	case w.via != viaOffline:
		start := time.Now()
		if s.model, err = core.TrainCategoryModel(f.Train, f.Cost, f.TrainOptions(w.Scale)); err != nil {
			return nil, fmt.Errorf("perf: training: %w", err)
		}
		s.trainSec = time.Since(start).Seconds()
	}
	if w.via == viaOffline {
		// One untimed pass, so lazy set-up inside the suite is paid
		// before the measured cycles.
		if _, err := runSuite(o.ScenarioDir, o.Quick); err != nil {
			return nil, err
		}
		s.sys = &offlineSystem{rig: offlineRig{f: f, dir: o.ScenarioDir}, model: s.model}
		return s, nil
	}
	rig, err := newServingRig(w, f, s.model)
	if err != nil {
		return nil, err
	}
	s.sys = &servingSystem{rig: rig}
	return s, nil
}

// servingSystem adapts a servingRig.
type servingSystem struct {
	rig   *servingRig
	first *phase
	p50Ms float64
}

func (s *servingSystem) measure(dur time.Duration) (*measured, error) {
	ph := s.rig.drive(dur, 0)
	m := ph.summarize()
	if s.first == nil {
		s.first, s.p50Ms = ph, m.p50Ms
	}
	return m, nil
}

func (s *servingSystem) verify() (int64, int64, error) { return s.rig.verify(s.first) }

func (s *servingSystem) Close() { s.rig.Close() }

func (s *servingSystem) layerValues() (map[string]float64, error) {
	r := s.rig
	out := map[string]float64{}
	histogram := "rpc_place_binary_latency_ns"
	if r.w.via == viaJSON {
		histogram = "rpc_place_json_latency_ns"
	}
	var urls []string
	if r.plane != nil {
		var shards []metrics.ShardSnapshot
		urls = r.plane.URLs()
		for i := range urls {
			shards = append(shards, r.plane.Node(i).ServeStats())
		}
		merge(out, serveCounterValues(metrics.Merge(shards)))
		merge(out, clientCounterValues(r.rtr.ClientStats()))
		merge(out, routerCounterValues(r.rtr, r.plane))
	} else {
		urls = []string{r.daemon.BaseURL()}
		merge(out, serveCounterValues(r.daemon.ServeStats()))
		total := r.clients[0].Stats()
		for _, c := range r.clients[1:] {
			cs := c.Stats()
			total.Requests += cs.Requests
			total.Sheds += cs.Sheds
			total.Retries += cs.Retries
		}
		merge(out, clientCounterValues(total))
	}
	var p50 float64
	var err error
	for _, u := range urls {
		var ns float64
		if ns, err = varzP50(u, histogram); err != nil {
			return nil, err
		}
		p50 += ns / float64(len(urls))
	}
	out["obs.varz_p50_ratio"] = p50 / (s.p50Ms * 1e6)

	var requests []int
	for c := range s.first.conns {
		log := &s.first.conns[c]
		for i := range log.latNs {
			requests = append(requests, log.first+i*log.step)
		}
	}
	out["features.row_repeat_share"], err = RowRepeatShare(r.f, r.model, r.w.batch, requests)
	return out, err
}

// offlineSystem adapts an offlineRig. model is the traced run's
// paper-scale model, nil in an untraced run.
type offlineSystem struct {
	rig   offlineRig
	model *core.CategoryModel
	first *offlineResult
}

func (s *offlineSystem) measure(dur time.Duration) (*measured, error) {
	m, res, err := s.rig.measure(dur)
	if err == nil && s.first == nil {
		s.first = res
	}
	return m, err
}

// verify has nothing to add: every scenario's report was compared with
// its golden file as it ran, and a scenario that is not PASS already
// counts as failed.
func (s *offlineSystem) verify() (int64, int64, error) { return 0, 0, nil }

func (s *offlineSystem) Close() {}

// layerValues reports the pool's own row repeat share: offline there
// is no replayed stream, and one pass of the pool is what the scenario
// and sim layers see.
func (s *offlineSystem) layerValues() (map[string]float64, error) {
	f := s.rig.f
	repeats, err := RowRepeatShare(f, s.model, 64, allRequests(f.Batches(64)))
	return map[string]float64{
		"features.row_repeat_share": repeats,
		"perf.train_s":              Median(s.first.trainSec),
		"perf.tco_savings_pct":      s.first.tcoPct,
	}, err
}

// RowRepeatShare is the exact share of the given replay requests' jobs
// whose binned feature row equals that of an earlier job in the same
// stream: the most any decision cache keyed on the binned row could
// hit.
func RowRepeatShare(f *Fixture, model *core.CategoryModel, size int, requests []int) (float64, error) {
	binner, err := features.BinnerForModel(model.Model)
	if err != nil {
		return 0, fmt.Errorf("perf: row repeat share: %w", err)
	}
	seen := make(map[string]struct{}, len(requests)*size)
	store := make([]trace.Job, size)
	ptrs := make([]*trace.Job, 0, size)
	var row []float64
	var bins []uint16
	key := make([]byte, 0, 2*model.Encoder.NumFeatures())
	repeats := 0
	for _, g := range requests {
		for _, j := range f.Batch(g, size, store, ptrs) {
			row = model.Encoder.Encode(j, row)
			bins = binner.Bin(row, bins)
			key = key[:0]
			for _, b := range bins {
				key = append(key, byte(b), byte(b>>8))
			}
			if _, dup := seen[string(key)]; dup {
				repeats++
				continue
			}
			seen[string(key)] = struct{}{}
		}
	}
	return share(int64(repeats), int64(len(requests)*size)), nil
}

// Run executes one workload once and reports its metrics.
func Run(o Options) (*Result, error) {
	w, ok := FindWorkload(o.Workload)
	if !ok {
		return nil, fmt.Errorf("perf: unknown workload %q", o.Workload)
	}
	if o.Seconds <= 0 {
		return nil, fmt.Errorf("perf: seconds must be positive, got %g", o.Seconds)
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	dur := time.Duration(o.Seconds * float64(time.Second))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(Procs))

	var s *setUp
	var setupSecs []float64
	for begin := time.Now(); ; {
		if s != nil {
			s.sys.Close()
		}
		start := time.Now()
		var err error
		if s, err = newSetUp(w, o); err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(start).Seconds())
		n := len(setupSecs)
		if o.Trace || o.Quick || n >= maxSetups || n >= minSetups && time.Since(begin) >= setupBudget {
			break
		}
	}
	defer s.sys.Close()
	fmt.Fprintf(o.Log, "%s: seed %d, GOMAXPROCS %d, %d pool jobs, set up in %.3v s\n",
		w.Name, o.Seed, Procs, len(s.f.Pool), setupSecs)

	m, err := bracket(func() (*measured, error) { return s.sys.measure(dur) })
	if err != nil {
		return nil, err
	}
	checked, wrong, err := s.sys.verify()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Attempted: m.attempted + checked,
		Failed:    m.failed + wrong,
		Metrics:   map[string]Metric{},
	}
	fmt.Fprintf(o.Log, "%s: %d jobs in %.3f s, %d requests, %d reference checks; jobs/s by unit %.0f\n",
		w.Name, m.jobs, m.wall.Seconds(), len(m.latMs), checked, m.unitRates)

	defs, values := EndToEnd, m.endToEnd(Median(setupSecs))
	if o.Trace {
		defs = PerLayer
		if values, err = traced(w, o, s, m, dur, res); err != nil {
			return nil, err
		}
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("perf: %s: metric %s was not measured", w.Name, d.Name)
		}
		res.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// traced runs the rest of a traced run after the measured phase — the
// GOMAXPROCS 1 re-run and the ledger pass — and returns every
// per-layer value. It adds the operations it attempts to res.
func traced(w Workload, o Options, s *setUp, m *measured, dur time.Duration, res *Result) (map[string]float64, error) {
	fromCounters, err := s.sys.layerValues()
	if err != nil {
		return nil, err
	}

	prev := runtime.GOMAXPROCS(1)
	one, err := s.sys.measure(dur / 4)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}
	res.Attempted += one.attempted
	res.Failed += one.failed
	s.sys.Close()

	rec := NewRecorder(w.Name)
	l, err := runLedger(w, s.f, s.model, o.ScenarioDir, rec)
	if err != nil {
		return nil, err
	}
	res.Attempted += l.checked
	res.Failed += l.wrong
	fmt.Fprintf(o.Log, "%s: ledger replayed %d batches, %d spans, %d cross-checks\n",
		w.Name, len(l.batches), len(rec.Spans()), l.checked)
	if o.TraceOut != "" {
		if err := rec.WriteFile(o.TraceOut); err != nil {
			return nil, err
		}
	}

	values := l.values
	values["perf.train_s"] = s.trainSec
	merge(values, fromCounters)
	merge(values, m.ungated())
	merge(values, map[string]float64{
		"gbdt.train_s":              s.gbdtSec,
		"core.label_encode_s":       s.trainSec - s.gbdtSec,
		"trace.generate_us_per_job": s.f.GenerateSec * 1e6 / float64(s.f.Generated),
		"perf.procs1_jobs_per_s":    one.jobsPerSec,
		"perf.scaling_x":            m.jobsPerSec / one.jobsPerSec,
		"perf.failed_share":         share(res.Failed, res.Attempted),
	})
	return values, nil
}

// allRequests lists request indices 0..n-1: one pass of the pool.
func allRequests(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
