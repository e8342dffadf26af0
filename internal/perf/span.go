package perf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span is one timed call into a layer during the ledger pass. Spans of
// one replayed batch share Batch; Parent names the enclosing cut, ""
// for a root.
type Span struct {
	Workload string `json:"workload"`
	Batch    int    `json:"batch"`
	Name     string `json:"name"`
	Parent   string `json:"parent"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// cutParents is the nesting of the ledger's cuts: a cut on the left is
// a step of every cut on its right. The ledger replays a batch through
// each cut separately, so a child measured once is recorded once under
// each of its parents.
var cutParents = map[string][]string{
	"features.encode":      {"rpc.place_binary", "rpc.place_stream", "serve.submit_batch"},
	"features.bin":         {"rpc.place_binary", "rpc.place_stream"},
	"wire.bin_codec":       {"rpc.place_binary", "rpc.place_stream"},
	"wire.json_codec":      {"rpc.place_json"},
	"features.unbin":       {"serve.submit_encoded"},
	"gbdt.predict":         {"serve.submit_encoded", "serve.submit_batch"},
	"core.admit":           {"serve.submit_encoded", "serve.submit_batch"},
	"serve.submit_encoded": {"rpc.place_binary", "rpc.place_stream"},
	"serve.submit_batch":   {"rpc.place_json"},
	"rpc.place_binary":     {"router.place"},
}

// Recorder keeps the ledger pass's spans in memory. It is used by the
// single ledger goroutine only.
type Recorder struct {
	workload string
	origin   time.Time
	spans    []Span
}

// NewRecorder starts a recorder whose span times count from now.
func NewRecorder(workload string) *Recorder {
	return &Recorder{workload: workload, origin: time.Now()}
}

// Add records one call of cut name on a batch, once under each parent
// cutParents lists for it.
func (r *Recorder) Add(batch int, name string, start, end time.Time) {
	parents := cutParents[name]
	if len(parents) == 0 {
		parents = []string{""}
	}
	for _, p := range parents {
		r.spans = append(r.spans, Span{
			Workload: r.workload,
			Batch:    batch,
			Name:     name,
			Parent:   p,
			StartNs:  start.Sub(r.origin).Nanoseconds(),
			EndNs:    end.Sub(r.origin).Nanoseconds(),
		})
	}
}

// Spans returns everything recorded so far.
func (r *Recorder) Spans() []Span { return r.spans }

// WriteFile writes the spans as JSON lines, creating the directory.
func (r *Recorder) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("perf: span trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("perf: span trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("perf: span trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("perf: span trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("perf: span trace: %w", err)
	}
	return nil
}

type spanKey struct {
	batch int
	name  string
}

// Durations groups span durations in nanoseconds by cut name, one per
// batch in recording order. A cut recorded under several parents
// counts once.
func Durations(spans []Span) map[string][]float64 {
	out := map[string][]float64{}
	seen := map[spanKey]bool{}
	for _, s := range spans {
		k := spanKey{s.Batch, s.Name}
		if seen[k] {
			continue
		}
		seen[k] = true
		out[s.Name] = append(out[s.Name], float64(s.EndNs-s.StartNs))
	}
	return out
}

// SelfTimes returns, for every cut that has children, its self time in
// nanoseconds per batch: the cut's duration minus the durations of the
// spans of the same batch that name it as parent. Children are replays
// of the cut's steps, not intervals inside it, so durations are
// subtracted, and a negative value means the steps replayed alone cost
// more than the whole.
func SelfTimes(spans []Span) map[string][]float64 {
	children := map[spanKey]float64{}
	for _, s := range spans {
		if s.Parent != "" {
			children[spanKey{s.Batch, s.Parent}] += float64(s.EndNs - s.StartNs)
		}
	}
	out := map[string][]float64{}
	seen := map[spanKey]bool{}
	for _, s := range spans {
		k := spanKey{s.Batch, s.Name}
		sum, ok := children[k]
		if !ok || seen[k] {
			continue
		}
		seen[k] = true
		out[s.Name] = append(out[s.Name], float64(s.EndNs-s.StartNs)-sum)
	}
	return out
}
