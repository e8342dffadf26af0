package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// ServeTracez serves GET /tracez: the ring's sampled traces, newest
// first, as text (default) or JSON (?format=json or Accept:
// application/json). Safe on a nil tracer (404: tracing disabled).
func (t *Tracer) ServeTracez(w http.ResponseWriter, r *http.Request) {
	if t == nil {
		http.Error(w, "tracing disabled", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	traces := t.Snapshot()
	if r.URL.Query().Get("format") == "json" || strings.Contains(r.Header.Get("Accept"), "application/json") {
		w.Header().Set("Content-Type", "application/json")
		_ = WriteTracezJSON(w, t.Node(), t.SampleEvery(), t.RingSize(), t.Sampled(), traces)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	WriteTracez(w, t.Node(), t.SampleEvery(), t.RingSize(), t.Sampled(), traces)
}

// WriteTracez renders the text form. Deterministic for fixed inputs —
// a golden test pins the format, and the live e2e greps trace IDs out
// of it (IDs render as %016x).
func WriteTracez(w io.Writer, node string, sampleEvery, ringSize int, sampled int64, traces []Trace) {
	fmt.Fprintf(w, "tracez node=%s sample_every=%d ring=%d sampled=%d showing=%d\n",
		node, sampleEvery, ringSize, sampled, len(traces))
	for i := range traces {
		tr := &traces[i]
		fmt.Fprintf(w, "trace %016x node=%s start=%s spans=%d\n",
			tr.ID, tr.Node, time.Unix(0, tr.StartUnixNs).UTC().Format(time.RFC3339Nano), len(tr.Spans))
		for _, sp := range tr.Spans {
			fmt.Fprintf(w, "  +%.3fms %.3fms %s", float64(sp.StartNs)/1e6, float64(sp.DurNs)/1e6, sp.Stage)
			if sp.Detail != "" {
				fmt.Fprintf(w, " %s", sp.Detail)
			}
			fmt.Fprintln(w)
		}
	}
}

// tracezJSON is the JSON form of one /tracez page.
type tracezJSON struct {
	Node        string      `json:"node"`
	SampleEvery int         `json:"sample_every"`
	Ring        int         `json:"ring"`
	Sampled     int64       `json:"sampled"`
	Traces      []traceJSON `json:"traces"`
}

// traceJSON wraps Trace with the ID in grep-friendly hex.
type traceJSON struct {
	ID string `json:"id"`
	Trace
}

// WriteTracezJSON renders the JSON form (IDs as %016x strings).
func WriteTracezJSON(w io.Writer, node string, sampleEvery, ringSize int, sampled int64, traces []Trace) error {
	page := tracezJSON{
		Node:        node,
		SampleEvery: sampleEvery,
		Ring:        ringSize,
		Sampled:     sampled,
		Traces:      make([]traceJSON, len(traces)),
	}
	for i, tr := range traces {
		page.Traces[i] = traceJSON{ID: fmt.Sprintf("%016x", tr.ID), Trace: tr}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(page)
}
