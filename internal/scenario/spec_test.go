package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// validSpecJSON is a minimal spec exercising every optional block.
const validSpecJSON = `{
  "name": "valid-spec",
  "description": "a valid spec",
  "pipeline": "sim",
  "trace": {
    "splitFrac": 0.4,
    "segments": [
      {"cluster": "a", "seed": 1, "users": 2, "days": 0.5,
       "weights": {"query": 1, "logproc": 0.5}, "loadScale": 2}
    ]
  },
  "train": {"rounds": 3, "categories": 4},
  "run": {"quotaFrac": 0.1}
}`

func TestParseSpecValid(t *testing.T) {
	s, err := ParseSpec([]byte(validSpecJSON))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if s.Name != "valid-spec" || s.Pipeline != PipelineSim {
		t.Fatalf("unexpected spec: %+v", s)
	}
	if got := s.Trace.splitFrac(); got != 0.4 {
		t.Fatalf("splitFrac = %g, want 0.4", got)
	}
	if got := s.Train.rounds(); got != 3 {
		t.Fatalf("rounds = %d, want 3", got)
	}
}

func TestParseSpecRejects(t *testing.T) {
	base := func() map[string]any {
		var m map[string]any
		if err := json.Unmarshal([]byte(validSpecJSON), &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		name    string
		mutate  func(m map[string]any)
		wantErr string
	}{
		{"bad name", func(m map[string]any) { m["name"] = "Bad Name!" }, "invalid name"},
		{"long name", func(m map[string]any) { m["name"] = strings.Repeat("x", 65) }, "invalid name"},
		{"unknown pipeline", func(m map[string]any) { m["pipeline"] = "warp" }, "unknown pipeline"},
		{"missing trace", func(m map[string]any) { delete(m, "trace") }, "requires a trace block"},
		{"fleet with trace", func(m map[string]any) {
			m["pipeline"] = "fleet"
			m["fleet"] = map[string]any{"clusters": 2, "seed": 1, "days": 1}
		}, "drop the trace block"},
		{"fleet without block", func(m map[string]any) {
			m["pipeline"] = "fleet"
			delete(m, "trace")
		}, "requires a fleet block"},
		{"fleet block on sim", func(m map[string]any) {
			m["fleet"] = map[string]any{"clusters": 2, "seed": 1, "days": 1}
		}, "only valid with pipeline"},
		{"no segments", func(m map[string]any) {
			m["trace"].(map[string]any)["segments"] = []any{}
		}, "at least one segment"},
		{"splitFrac too high", func(m map[string]any) {
			m["trace"].(map[string]any)["splitFrac"] = 1.0
		}, "splitFrac"},
		{"zero users", func(m map[string]any) {
			seg(m)["users"] = 0
		}, "users"},
		{"huge days", func(m map[string]any) {
			seg(m)["days"] = 400
		}, "days"},
		{"inverted steps", func(m map[string]any) {
			seg(m)["minSteps"] = 9
			seg(m)["maxSteps"] = 3
		}, "minSteps 9 > maxSteps 3"},
		{"unknown archetype", func(m map[string]any) {
			seg(m)["weights"] = map[string]any{"cryptomining": 1}
		}, "unknown archetype"},
		{"zero-sum weights", func(m map[string]any) {
			seg(m)["weights"] = map[string]any{"query": 0}
		}, "weights sum"},
		{"negative weight", func(m map[string]any) {
			seg(m)["weights"] = map[string]any{"query": -1}
		}, "out of range"},
		{"bad cluster", func(m map[string]any) {
			seg(m)["cluster"] = "No Spaces"
		}, "invalid cluster name"},
		{"repeated cluster", func(m map[string]any) {
			m["trace"].(map[string]any)["segments"] = []any{seg(m), seg(m)}
		}, `segment 1: cluster name "a" is segment 0's too`},
		{"cluster named as a default", func(m map[string]any) {
			seg(m)["cluster"] = "s1"
			unnamed := map[string]any{"seed": 2, "users": 2, "days": 0.5}
			m["trace"].(map[string]any)["segments"] = []any{seg(m), unnamed}
		}, `segment 1: cluster name "s1" is segment 0's too`},
		{"categories 1", func(m map[string]any) {
			m["train"].(map[string]any)["categories"] = 1
		}, "train categories"},
		{"rounds overflow", func(m map[string]any) {
			m["train"].(map[string]any)["rounds"] = 1000
		}, "train rounds"},
		{"quota over 1", func(m map[string]any) {
			m["run"].(map[string]any)["quotaFrac"] = 1.5
		}, "quotaFrac"},
		{"windowMax 1", func(m map[string]any) {
			m["run"].(map[string]any)["windowMax"] = 1
		}, "windowMax"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := base()
			tc.mutate(m)
			data, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			_, err = ParseSpec(data)
			if err == nil {
				t.Fatalf("ParseSpec accepted %s", data)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func seg(m map[string]any) map[string]any {
	return m["trace"].(map[string]any)["segments"].([]any)[0].(map[string]any)
}

func TestParseSpecStrict(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"name": "x", "pipeline": "sim", "bogus": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseSpec([]byte(validSpecJSON + "{}")); err == nil {
		t.Fatal("trailing data accepted")
	}
	if _, err := ParseSpec([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestParseSpecRoundTrip pins the property FuzzScenarioSpec explores:
// defaults apply at run time, not parse time, so a valid spec survives
// marshal → parse unchanged.
func TestParseSpecRoundTrip(t *testing.T) {
	s, err := ParseSpec([]byte(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ParseSpec(out)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Fatalf("round trip changed spec:\n%+v\n%+v", s, s2)
	}
}

func TestEffectiveDefaults(t *testing.T) {
	var tr TrainSpec
	var r RunSpec
	var ts TraceSpec
	if tr.rounds() != 8 || tr.categories() != 8 {
		t.Fatalf("train defaults: rounds %d categories %d", tr.rounds(), tr.categories())
	}
	if r.quotaFrac() != 0.05 {
		t.Fatalf("run defaults: %g", r.quotaFrac())
	}
	if got := r.retrainSec(); got != 12*3600 {
		t.Fatalf("retrainSec default = %g, want 12h", got)
	}
	r.DriftTV = 0.3
	if got := r.retrainSec(); got != 0 {
		t.Fatalf("retrainSec with drift-only trigger = %g, want 0", got)
	}
	if ts.splitFrac() != 0.5 {
		t.Fatalf("splitFrac default = %g", ts.splitFrac())
	}
	ts.Segments = []SegmentSpec{
		{Days: 1},
		{Days: 2, OffsetDays: 1.5},
	}
	if got := ts.totalDays(); got != 3.5 {
		t.Fatalf("totalDays = %g, want 3.5", got)
	}
}

func TestThresholdsCheck(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	var nilTh *Thresholds
	if v := nilTh.Check(Stats{}); v != nil {
		t.Fatalf("nil thresholds produced violations %v", v)
	}
	th := &Thresholds{MinTCOPct: f(5), MinJobsPerSec: f(100), MaxP99Ms: f(10)}
	s := Stats{TCOPct: 6, JobsPerSec: 200, P99Ms: 1}
	if v := th.Check(s); len(v) != 0 {
		t.Fatalf("clean stats produced violations %v", v)
	}
	s = Stats{TCOPct: 4, JobsPerSec: 50, P99Ms: 20}
	v := th.Check(s)
	if len(v) != 3 {
		t.Fatalf("want 3 violations, got %v", v)
	}
	for _, want := range []string{"TCO savings", "throughput", "p99"} {
		found := false
		for _, line := range v {
			if strings.Contains(line, want) {
				found = true
			}
		}
		if !found {
			t.Fatalf("violations %v missing %q", v, want)
		}
	}
	if _, err := ParseThresholds([]byte(`{"min_tco_pct": 1, "bogus": 2}`)); err == nil {
		t.Fatal("unknown threshold field accepted")
	}
}
