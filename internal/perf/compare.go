package perf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Record is one run as -out files keep it, one JSON object per line.
type Record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   Result `json:"result"`
}

// AppendRecord appends one record to a JSON-lines file.
func AppendRecord(path string, rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("perf: record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("perf: record: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("perf: record: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("perf: record: %w", err)
	}
	return nil
}

// ReadRecords reads a file AppendRecord wrote.
func ReadRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("perf: records: %w", err)
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("perf: records: %s line %d: %w", path, len(out)+1, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("perf: records: %w", err)
	}
	return out, nil
}

// Verdicts of Compare.
const (
	Improved   = "improved"
	Unchanged  = "unchanged"
	Regressed  = "regressed"
	Unresolved = "unresolved"
)

// Judge compares the runs of one end-to-end metric on one workload
// before and after a change. With worse meaning the after side's
// median is worse than the before side's, as a share of it:
//
//   - regressed: worse by more than the metric's bound, and by more
//     than the runs' own spread (the wider side's quartile distance as
//     a share of its median);
//   - improved: better by more than that spread, with the after side
//     winning at least nine tenths of the pairs, run i against run i,
//     ties counting for neither;
//   - unresolved: the spread is wider than the bound, so the runs
//     cannot show that the metric stayed within it;
//   - unchanged: otherwise.
func Judge(d MetricDef, before, after []float64) string {
	bq1, bmed, bq3 := Quartiles(before)
	aq1, amed, aq3 := Quartiles(after)
	if bmed == 0 || amed == 0 {
		return Unresolved
	}
	sign := 1.0 // positive worse means after is worse
	if d.Better == higher {
		sign = -1
	}
	worse := sign * (amed - bmed) / bmed
	spread := (bq3 - bq1) / bmed
	if s := (aq3 - aq1) / amed; s > spread {
		spread = s
	}
	wins, losses := 0, 0
	for i := 0; i < len(before) && i < len(after); i++ {
		switch diff := sign * (after[i] - before[i]); {
		case diff < 0:
			wins++
		case diff > 0:
			losses++
		}
	}
	switch {
	case worse > d.Bound && worse > spread:
		return Regressed
	case -worse > spread && wins+losses > 0 && float64(wins) >= 0.9*float64(wins+losses):
		return Improved
	case spread > d.Bound:
		return Unresolved
	default:
		return Unchanged
	}
}

// timingBound is the bound Compare judges the ungated timings by: the
// widest the benchmark contract allows.
const timingBound = 0.25

// judged lists what Compare gives a verdict on: every end-to-end metric,
// from untraced runs, and the timings a traced run reports.
func judged() (untraced, traced []MetricDef) {
	for _, d := range PerLayer {
		switch d.Name {
		case "perf.jobs_per_s", "perf.batch_p50_ms", "perf.cpu_us_per_job":
			d.Bound = timingBound
			traced = append(traced, d)
		}
	}
	return EndToEnd, traced
}

// Compare prints one verdict per workload and metric for two record
// sets — end-to-end metrics from their untraced runs, timings from
// their traced runs — and reports whether nothing regressed or stayed
// unresolved.
func Compare(before, after []Record, w io.Writer) bool {
	values := func(recs []Record, workload string, trace bool, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
				out = append(out, m.Value)
			}
		}
		return out
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbefore median [q1, q3] (n)\tafter median [q1, q3] (n)\tchange\tbound\tverdict")
	ok := true
	untraced, traced := judged()
	for _, wl := range Workloads() {
		for i, d := range append(untraced, traced...) {
			trace := i >= len(untraced)
			b, a := values(before, wl.Name, trace, d.Name), values(after, wl.Name, trace, d.Name)
			if len(b) == 0 || len(a) == 0 {
				continue
			}
			verdict := Judge(d, b, a)
			if verdict == Regressed || verdict == Unresolved {
				ok = false
			}
			bq1, bmed, bq3 := Quartiles(b)
			aq1, amed, aq3 := Quartiles(a)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g] (%d)\t%.5g [%.5g, %.5g] (%d)\t%+.2f%%\t%.0f%%\t%s\n",
				wl.Name, d.Name, d.Unit, bmed, bq1, bq3, len(b), amed, aq1, aq3, len(a),
				100*(amed-bmed)/bmed, 100*d.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return false
	}
	return ok
}
