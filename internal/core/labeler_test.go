package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cost"
	"repro/internal/trace"
)

func clusterJobs(t *testing.T, seed int64, days float64) []*trace.Job {
	t.Helper()
	cfg := trace.DefaultGeneratorConfig("C0", seed)
	cfg.DurationSec = days * 24 * 3600
	jobs := trace.NewGenerator(cfg).Generate().Jobs
	if len(jobs) < 200 {
		t.Fatalf("only %d jobs generated", len(jobs))
	}
	return jobs
}

func TestFitLabelerBalancedClasses(t *testing.T) {
	jobs := clusterJobs(t, 1, 2)
	cm := cost.Default()
	const n = 15
	l, err := FitLabeler(jobs, cm, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("labeler invalid: %v", err)
	}
	counts := make([]int, n)
	var nonNeg int
	for _, j := range jobs {
		c := l.Label(j, cm)
		if c < 0 || c >= n {
			t.Fatalf("label %d outside [0,%d)", c, n)
		}
		counts[c]++
		if cm.Savings(j) >= 0 {
			nonNeg++
			if c == 0 {
				t.Fatalf("non-negative job labeled 0")
			}
		} else if c != 0 {
			t.Fatalf("negative-savings job labeled %d", c)
		}
	}
	// Classes 1..N-1 evenly divide the non-negative jobs (Section 4.2):
	// each should be within 2x of the ideal share.
	ideal := float64(nonNeg) / float64(n-1)
	for k := 1; k < n; k++ {
		if float64(counts[k]) < ideal*0.5 || float64(counts[k]) > ideal*2 {
			t.Errorf("class %d has %d jobs, ideal %.0f (counts=%v)", k, counts[k], ideal, counts)
		}
	}
}

func TestLabelValuesOrdering(t *testing.T) {
	l := &Labeler{NumCategories: 4, Boundaries: []float64{1, 10}}
	cases := []struct {
		savings, density float64
		want             int
	}{
		{-1, 100, 0},
		{1, 0.5, 1},
		{1, 1, 1}, // boundary belongs to lower class
		{1, 1.5, 2},
		{1, 10, 2},
		{1, 11, 3},
	}
	for _, c := range cases {
		if got := l.LabelValues(c.savings, c.density); got != c.want {
			t.Errorf("LabelValues(%g, %g) = %d, want %d", c.savings, c.density, got, c.want)
		}
	}
}

func TestLabelMonotoneInDensity(t *testing.T) {
	jobs := clusterJobs(t, 2, 2)
	cm := cost.Default()
	l, err := FitLabeler(jobs, cm, 10)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for _, d := range []float64{0, 0.1, 1, 5, 20, 100, 1e4} {
		c := l.LabelValues(1, d)
		if c < prev {
			t.Fatalf("label decreased with density: %d after %d", c, prev)
		}
		prev = c
	}
}

func TestFitLabelerErrors(t *testing.T) {
	cm := cost.Default()
	if _, err := FitLabeler(nil, cm, 1); err == nil {
		t.Error("1 category accepted")
	}
	if _, err := FitLabeler(nil, cm, 5); err == nil {
		t.Error("empty training set accepted")
	}
	// All-negative training set: quantiles fall back to the overall
	// density distribution (the paper's C3 outlier cluster case).
	neg := &trace.Job{
		ID: "n", LifetimeSec: 12 * 3600, SizeBytes: 200e9,
		ReadBytes: 1e9, WriteBytes: 300e9, AvgReadSizeBytes: 8 << 20, CacheHitFrac: 0.6,
	}
	if cm.Savings(neg) >= 0 {
		t.Fatal("setup: job not negative")
	}
	l, err := FitLabeler([]*trace.Job{neg}, cm, 5)
	if err != nil {
		t.Fatalf("all-negative training set rejected: %v", err)
	}
	if got := l.Label(neg, cm); got != 0 {
		t.Errorf("negative job labeled %d, want 0", got)
	}
}

func TestLabelerTwoCategories(t *testing.T) {
	// N=2 degenerates to sign prediction: all non-negative jobs in
	// class 1, no boundaries.
	jobs := clusterJobs(t, 3, 1)
	cm := cost.Default()
	l, err := FitLabeler(jobs, cm, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Boundaries) != 0 {
		t.Fatalf("N=2 labeler has %d boundaries", len(l.Boundaries))
	}
	for _, j := range jobs[:200] {
		want := 1
		if cm.Savings(j) < 0 {
			want = 0
		}
		if got := l.Label(j, cm); got != want {
			t.Fatalf("N=2 label = %d, want %d", got, want)
		}
	}
}

func TestLabelerSerialization(t *testing.T) {
	// A 2-category labeler has no boundaries: FitLabeler leaves them nil,
	// and it encodes as null.
	two, err := FitLabeler(clusterJobs(t, 1, 1), cost.Default(), 2)
	if err != nil || two.Boundaries != nil {
		t.Fatalf("2-category fit: %+v, %v; want nil boundaries", two, err)
	}
	for _, l := range []*Labeler{{NumCategories: 4, Boundaries: []float64{1, 10}}, two} {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(l); err != nil {
			t.Fatal(err)
		}
		if l.Boundaries == nil && !bytes.Contains(buf.Bytes(), []byte(`"boundaries":null`)) {
			t.Errorf("%d categories: file %s, want null boundaries", l.NumCategories, buf.Bytes())
		}
		got, err := LoadLabeler(&buf)
		if err != nil {
			t.Fatalf("%d categories: %v", l.NumCategories, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%d categories: loaded labeler: %v", l.NumCategories, err)
		}
		if got.NumCategories != l.NumCategories || len(got.Boundaries) != len(l.Boundaries) {
			t.Errorf("round trip lost data: %+v, want %+v", got, l)
		}
		for _, d := range []float64{0, 0.5, 1, 5, 10, 100} {
			for _, savings := range []float64{-1, 1} {
				if a, b := got.LabelValues(savings, d), l.LabelValues(savings, d); a != b {
					t.Errorf("%d categories: density %g, savings %g: loaded label %d, saved %d", l.NumCategories, d, savings, a, b)
				}
			}
		}
	}
	if _, err := LoadLabeler(bytes.NewBufferString("junk")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadLabeler(bytes.NewBufferString(`{"num_categories":4,"boundaries":[5,1]}`)); err == nil {
		t.Error("non-monotone boundaries accepted")
	}
}
