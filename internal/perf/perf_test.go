package perf

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := HighestPercentile(c.n); got != c.want {
			t.Errorf("HighestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {1, 1}} {
		if got := Percentile(s, c.p); got != c.want {
			t.Errorf("Percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile of nothing = %v, want 0", got)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 2, 3, 4, 5, 6, 7, 8, 9, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 9}, [3]float64{1, 5, 9}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, med, q3 := Quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("Quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSelfTimeSubtraction(t *testing.T) {
	rec := NewRecorder("w")
	at := func(us int) time.Time { return rec.origin.Add(time.Duration(us) * time.Microsecond) }
	for batch := 0; batch < 2; batch++ {
		extra := batch * 10
		rec.Add(batch, "features.unbin", at(0), at(5))
		rec.Add(batch, "gbdt.predict", at(5), at(65+extra))
		rec.Add(batch, "core.admit", at(70), at(72))
		rec.Add(batch, "serve.submit_encoded", at(100), at(190+extra))
		rec.Add(batch, "rpc.place_binary", at(200), at(330+extra))
	}
	spans := rec.Spans()
	// gbdt.predict is a step of both submit entries, so it is recorded
	// under each; durations still count it once.
	if got := len(Durations(spans)["gbdt.predict"]); got != 2 {
		t.Fatalf("gbdt.predict durations = %d, want one per batch", got)
	}
	self := SelfTimes(spans)
	// serve.submit_encoded: 90 - (5 + 60 + 2) = 23 µs on both batches.
	for i, got := range self["serve.submit_encoded"] {
		if got != 23_000 {
			t.Errorf("batch %d serve self = %v ns, want 23000", i, got)
		}
	}
	// rpc.place_binary's only recorded child here is the serve cut:
	// 130 - 90 = 40 µs.
	if got := self["rpc.place_binary"]; len(got) != 2 || got[0] != 40_000 || got[1] != 40_000 {
		t.Errorf("rpc self = %v, want [40000 40000]", got)
	}
	if _, ok := self["core.admit"]; ok {
		t.Error("a cut without children has no self time to report")
	}
	// A child that costs more alone than inside its parent shows as a
	// negative residual rather than being clamped.
	rec2 := NewRecorder("w")
	rec2.Add(0, "gbdt.predict", rec2.origin, rec2.origin.Add(50*time.Microsecond))
	rec2.Add(0, "serve.submit_batch", rec2.origin, rec2.origin.Add(40*time.Microsecond))
	if got := SelfTimes(rec2.Spans())["serve.submit_batch"]; len(got) != 1 || got[0] != -10_000 {
		t.Errorf("negative residual = %v, want [-10000]", got)
	}
}

func quickFixture(t *testing.T) *Fixture {
	t.Helper()
	f, err := NewFixture(1, true)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBatchTimeShift(t *testing.T) {
	f := quickFixture(t)
	if len(f.Pool)%64 != 0 {
		t.Fatalf("pool of %d jobs is not a multiple of the request size", len(f.Pool))
	}
	before := make([]float64, len(f.Pool))
	for i, j := range f.Pool {
		before[i] = j.ArrivalSec
	}
	const size = 8
	per := f.Batches(size)
	store := make([]trace.Job, size)
	for c := 0; c < Connections; c++ {
		last := math.Inf(-1)
		// Two and a half passes, so the check crosses two wraps.
		for g := c; g < per*5/2; g += Connections {
			for k, j := range f.Batch(g, size, store, nil) {
				if j.ArrivalSec < last {
					t.Fatalf("connection %d: arrival went back from %v to %v at request %d", c, last, j.ArrivalSec, g)
				}
				last = j.ArrivalSec
				src := f.Pool[g%per*size+k]
				if j.ID != src.ID || j.ArrivalSec != src.ArrivalSec+float64(g/per)*passShiftSec {
					t.Fatalf("request %d job %d is not pool job %s shifted by %d passes", g, k, src.ID, g/per)
				}
			}
		}
	}
	for i, j := range f.Pool {
		if j.ArrivalSec != before[i] {
			t.Fatalf("pool job %d was modified by the replay", i)
		}
	}
}

// The fixture's own pool holds no two jobs with the same binned row;
// replaying it again and again must keep it that way, or a decision
// cache would hit on the replay's own echo.
func TestRowRepeatShareUnchangedByExtraPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the lite model at full scale")
	}
	f, err := NewFixture(1, false)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.TrainCategoryModel(f.Train, f.Cost, f.TrainOptions(ScaleLite))
	if err != nil {
		t.Fatal(err)
	}
	per := f.Batches(64)
	one, err := RowRepeatShare(f, model, 64, allRequests(per))
	if err != nil {
		t.Fatal(err)
	}
	eight, err := RowRepeatShare(f, model, 64, allRequests(8*per))
	if err != nil {
		t.Fatal(err)
	}
	if eight > one+0.001 {
		t.Errorf("row repeat share %v over one pass became %v over eight: the time shift lets rows recur across passes", one, eight)
	}
	// The same pass replayed without its shift repeats every row.
	again := append(allRequests(per), allRequests(per)...)
	if twice, _ := RowRepeatShare(f, model, 64, again); twice < 0.5 {
		t.Errorf("an unshifted second pass gives share %v, want at least 0.5", twice)
	}
}

func TestSampledIsSeededAndSparse(t *testing.T) {
	const n = 1 << 16
	hits, differ := 0, 0
	for i := 0; i < n; i++ {
		a := sampled(7, i, forestSampleOneIn)
		if a != sampled(7, i, forestSampleOneIn) {
			t.Fatalf("job %d: sample changed between calls", i)
		}
		if a {
			hits++
		}
		if a != sampled(8, i, forestSampleOneIn) {
			differ++
		}
	}
	if want := n / forestSampleOneIn; hits < want*8/10 || hits > want*12/10 {
		t.Errorf("seed 7 samples %d of %d jobs, want about %d", hits, n, want)
	}
	if differ == 0 {
		t.Error("seeds 7 and 8 pick the same sample")
	}
	j := &trace.Job{ArrivalSec: 100, LifetimeSec: 50}
	if a, b := seededOutcome(3, 41, j, true), seededOutcome(3, 41, j, true); a != b {
		t.Errorf("seeded outcome changed between calls: %+v vs %+v", a, b)
	}
}

func TestJudge(t *testing.T) {
	lowerIsBetter := MetricDef{Name: "batch_p50_ms", Better: lower, Bound: 0.10}
	higherIsBetter := MetricDef{Name: "jobs_per_s", Better: higher, Bound: 0.05}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, by float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * by
		}
		return out
	}
	noisy := []float64{100, 130, 75, 110, 90, 140, 70, 100, 125, 80}
	for _, c := range []struct {
		name          string
		def           MetricDef
		before, after []float64
		want          string
	}{
		{"same runs", lowerIsBetter, steady, steady, Unchanged},
		{"latency up 20%", lowerIsBetter, steady, scale(steady, 1.2), Regressed},
		{"latency down 20%", lowerIsBetter, steady, scale(steady, 0.8), Improved},
		{"throughput down 20%", higherIsBetter, steady, scale(steady, 0.8), Regressed},
		{"throughput up 20%", higherIsBetter, steady, scale(steady, 1.2), Improved},
		{"within the bound", lowerIsBetter, steady, scale(steady, 1.04), Unchanged},
		{"spread wider than the bound", lowerIsBetter, noisy, noisy, Unresolved},
		{"worse by more than the bound but inside the spread", lowerIsBetter, noisy, scale(noisy, 1.15), Unresolved},
	} {
		if got := Judge(c.def, c.before, c.after); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	mk := func(allocs float64) Record {
		res := Result{Correct: true, Attempted: 1, Metrics: map[string]Metric{}}
		for _, d := range EndToEnd {
			res.Metrics[d.Name] = Metric{Value: 10, Unit: d.Unit}
		}
		res.Metrics["allocs_per_job"] = Metric{Value: allocs, Unit: "count"}
		return Record{Workload: "binary-lite", Seed: 1, Result: res}
	}
	for i := 0; i < 5; i++ {
		if err := AppendRecord(path, mk(1+float64(i)/1000)); err != nil {
			t.Fatal(err)
		}
	}
	before, err := ReadRecords(path)
	if err != nil || len(before) != 5 {
		t.Fatalf("read %d records, err %v; want 5", len(before), err)
	}
	var out bytes.Buffer
	if !Compare(before, before, &out) {
		t.Errorf("a set compared with itself is not all unchanged:\n%s", out.String())
	}
	after := make([]Record, len(before))
	for i := range before {
		after[i] = mk(2 + float64(i)/1000)
	}
	out.Reset()
	if Compare(before, after, &out) || !strings.Contains(out.String(), Regressed) {
		t.Errorf("doubled allocations were not reported as regressed:\n%s", out.String())
	}
	// Timings are judged from traced runs, against the widest bound.
	traced := func(cpu float64) []Record {
		recs := make([]Record, 5)
		for i := range recs {
			recs[i] = Record{Workload: "binary-lite", Trace: true, Result: Result{Metrics: map[string]Metric{
				"perf.cpu_us_per_job": {Value: cpu + float64(i)/100, Unit: "us"},
			}}}
		}
		return recs
	}
	out.Reset()
	if Compare(traced(10), traced(14), &out) || !strings.Contains(out.String(), "perf.cpu_us_per_job") {
		t.Errorf("40%% more CPU per job in traced runs was not reported as regressed:\n%s", out.String())
	}
}

// TestManifestMatchesFile pins BENCHMARK.json to the tables the program
// reports from, and the tables to the limits of the benchmark contract.
func TestManifestMatchesFile(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, Manifest()) {
		t.Error("BENCHMARK.json differs from `go run ./cmd/bench -manifest`")
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(Manifest(), &m); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is outside the contract", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	ws := Workloads()
	if len(ws) < 2 || len(ws) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(ws))
	}
	for _, w := range ws {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(EndToEnd) > 16 || len(PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(EndToEnd), len(PerLayer))
	}
	hasSetup := false
	for _, d := range EndToEnd {
		check("end-to-end", d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", d)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == lower {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	for _, d := range PerLayer {
		check("per-layer", d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("per-layer metric %+v is outside the contract", d)
		}
	}
	if RunSeconds < 1 || RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1 to 60", RunSeconds)
	}
}

// TestQuickSmoke runs all seven workloads at smoke scale, traced, so
// every phase and every ledger cut executes, and one of them untraced.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := filepath.Join("..", "..", "scenarios")
	for _, w := range Workloads() {
		o := Options{Workload: w.Name, Seed: 1, Seconds: 0.1, Trace: true, Quick: true, ScenarioDir: dir}
		if w.Name == "binary-lite" {
			o.TraceOut = filepath.Join(t.TempDir(), "spans.jsonl")
		}
		res, err := Run(o)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(PerLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(res.Metrics), len(PerLayer))
		}
		for _, d := range PerLayer {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s = %+v (present %v), want a finite value in %s", w.Name, d.Name, m, ok, d.Unit)
			}
		}
		if o.TraceOut != "" {
			data, err := os.ReadFile(o.TraceOut)
			if err != nil {
				t.Fatal(err)
			}
			var first Span
			line, _, _ := bytes.Cut(data, []byte("\n"))
			if err := json.Unmarshal(line, &first); err != nil || first.Workload != w.Name || first.EndNs < first.StartNs {
				t.Errorf("first span %s did not parse into a span of %s: %v", line, w.Name, err)
			}
		}
	}
	res, err := Run(Options{Workload: "stream-lite", Seed: 2, Seconds: 0.1, Quick: true, ScenarioDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range EndToEnd {
		if m, ok := res.Metrics[d.Name]; !ok || m.Value <= 0 {
			t.Errorf("stream-lite: end-to-end metric %s = %+v, want a positive value", d.Name, m)
		}
	}
	if len(res.Metrics) != len(EndToEnd) || !res.Correct {
		t.Errorf("stream-lite: %d metrics (want %d), correct=%v", len(res.Metrics), len(EndToEnd), res.Correct)
	}
}
