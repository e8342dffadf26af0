package trace

import (
	"bytes"
	"math"
	"sort"
	"testing"
)

// Users returns the distinct users in the trace, sorted.
func (t *Trace) Users() []string {
	set := map[string]bool{}
	for _, j := range t.Jobs {
		set[j.User] = true
	}
	out := make([]string, 0, len(set))
	for u := range set {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

func testJob(id string, arrival, lifetime, size float64) *Job {
	return &Job{
		ID:               id,
		Cluster:          "C0",
		User:             "u",
		Pipeline:         "p",
		Step:             "s",
		ArrivalSec:       arrival,
		LifetimeSec:      lifetime,
		SizeBytes:        size,
		ReadBytes:        size * 2,
		WriteBytes:       size,
		AvgReadSizeBytes: 1 << 20,
		CacheHitFrac:     0.3,
	}
}

func TestJobDerived(t *testing.T) {
	j := testJob("a", 3600, 100, 1000)
	if got := j.EndSec(); got != 3700 {
		t.Errorf("EndSec = %g, want 3700", got)
	}
	if got := j.TotalBytes(); got != 3000 {
		t.Errorf("TotalBytes = %g, want 3000", got)
	}
	if got := j.IODensity(); got != 3 {
		t.Errorf("IODensity = %g, want 3", got)
	}
	if got := j.HourOfDay(); got != 1 {
		t.Errorf("HourOfDay = %d, want 1", got)
	}
	if got := j.SecondOfDay(); got != 3600 {
		t.Errorf("SecondOfDay = %g, want 3600", got)
	}
	if got := j.TemplateKey(); got != "p/s" {
		t.Errorf("TemplateKey = %q", got)
	}
}

func TestJobWeekday(t *testing.T) {
	// Epoch is a Monday.
	j := testJob("a", 0, 1, 1)
	if got := j.Weekday(); got != 1 {
		t.Errorf("Weekday at epoch = %d, want 1 (Monday)", got)
	}
	j.ArrivalSec = 6 * 86400
	if got := j.Weekday(); got != 0 {
		t.Errorf("Weekday +6d = %d, want 0 (Sunday)", got)
	}
}

func TestJobValidate(t *testing.T) {
	good := testJob("a", 0, 10, 100)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Job)
	}{
		{"empty id", func(j *Job) { j.ID = "" }},
		{"zero lifetime", func(j *Job) { j.LifetimeSec = 0 }},
		{"zero size", func(j *Job) { j.SizeBytes = 0 }},
		{"negative reads", func(j *Job) { j.ReadBytes = -1 }},
		{"bad cache frac", func(j *Job) { j.CacheHitFrac = 1.5 }},
		{"nan arrival", func(j *Job) { j.ArrivalSec = math.NaN() }},
	}
	for _, c := range cases {
		j := testJob("a", 0, 10, 100)
		c.mutate(j)
		if err := j.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestTraceSortAndValidate(t *testing.T) {
	tr := &Trace{Cluster: "C0", Jobs: []*Job{
		testJob("b", 50, 10, 100),
		testJob("a", 10, 10, 100),
		testJob("c", 10, 10, 100),
	}}
	if err := tr.Validate(); err == nil {
		t.Fatal("unsorted trace should fail validation")
	}
	tr.Sort()
	if err := tr.Validate(); err != nil {
		t.Fatalf("sorted trace failed validation: %v", err)
	}
	if tr.Jobs[0].ID != "a" || tr.Jobs[1].ID != "c" || tr.Jobs[2].ID != "b" {
		t.Errorf("sort order wrong: %s %s %s", tr.Jobs[0].ID, tr.Jobs[1].ID, tr.Jobs[2].ID)
	}
}

func TestPeakSSDUsage(t *testing.T) {
	tr := &Trace{Jobs: []*Job{
		testJob("a", 0, 100, 10),
		testJob("b", 50, 100, 20),
		testJob("c", 120, 10, 5),
	}}
	// a+b overlap during [50,100): 30. c alone: 5 (b ends at 150 > 120 so
	// b+c overlap: 25). Peak = 30.
	if got := tr.PeakSSDUsage(); got != 30 {
		t.Errorf("PeakSSDUsage = %g, want 30", got)
	}
}

func TestPeakSSDUsageTouchingIntervals(t *testing.T) {
	// Job b starts exactly when job a ends: no overlap should be counted.
	tr := &Trace{Jobs: []*Job{
		testJob("a", 0, 100, 10),
		testJob("b", 100, 100, 10),
	}}
	if got := tr.PeakSSDUsage(); got != 10 {
		t.Errorf("PeakSSDUsage = %g, want 10 (release before acquire)", got)
	}
}

func TestSplitAndFilter(t *testing.T) {
	tr := &Trace{Jobs: []*Job{
		testJob("a", 0, 10, 100),
		testJob("b", 100, 10, 100),
		testJob("c", 200, 10, 100),
	}}
	train, test := tr.SplitAt(150)
	if len(train.Jobs) != 2 || len(test.Jobs) != 1 {
		t.Fatalf("split sizes %d/%d, want 2/1", len(train.Jobs), len(test.Jobs))
	}
	only := tr.Filter(func(j *Job) bool { return j.ID == "c" })
	if len(only.Jobs) != 1 || only.Jobs[0].ID != "c" {
		t.Fatalf("Filter returned wrong jobs")
	}
}

func TestUsers(t *testing.T) {
	tr := &Trace{Jobs: []*Job{
		{ID: "1", User: "u2", Pipeline: "p1", LifetimeSec: 1, SizeBytes: 1},
		{ID: "2", User: "u1", Pipeline: "p2", LifetimeSec: 1, SizeBytes: 1},
		{ID: "3", User: "u1", Pipeline: "p1", LifetimeSec: 1, SizeBytes: 1},
	}}
	users := tr.Users()
	if len(users) != 2 || users[0] != "u1" || users[1] != "u2" {
		t.Errorf("Users = %v", users)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	g := NewGenerator(GeneratorConfig{
		Cluster: "C9", Seed: 42, NumUsers: 3,
		MinSteps: 1, MaxSteps: 2, DurationSec: 24 * 3600,
	})
	tr := g.Generate()
	if len(tr.Jobs) == 0 {
		t.Fatal("generator produced no jobs")
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if got.Cluster != tr.Cluster {
		t.Errorf("cluster %q, want %q", got.Cluster, tr.Cluster)
	}
	if len(got.Jobs) != len(tr.Jobs) {
		t.Fatalf("job count %d, want %d", len(got.Jobs), len(tr.Jobs))
	}
	for i := range got.Jobs {
		a, b := *got.Jobs[i], *tr.Jobs[i]
		if a != b {
			t.Fatalf("job %d differs after round trip:\n got %+v\nwant %+v", i, a, b)
		}
	}
}

func TestReadJSONLTruncated(t *testing.T) {
	if _, err := ReadJSONL(bytes.NewBufferString("")); err == nil {
		t.Error("empty input should error")
	}
	if _, err := ReadJSONL(bytes.NewBufferString(`{"cluster":"c","num_jobs":3}` + "\n")); err == nil {
		t.Error("header count mismatch should error")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/trace.jsonl"
	tr := &Trace{Cluster: "CX", Jobs: []*Job{testJob("a", 0, 10, 100)}}
	if err := SaveFile(path, tr); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if len(got.Jobs) != 1 || got.Jobs[0].ID != "a" {
		t.Errorf("LoadFile returned wrong trace")
	}
	if _, err := LoadFile(dir + "/missing.jsonl"); err == nil {
		t.Error("loading missing file should error")
	}
}
