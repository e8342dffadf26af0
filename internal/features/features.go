// Package features converts shuffle jobs into model feature rows
// following the paper's Table 2 schema. Features fall into the four
// groups the paper analyzes in Fig. 9c:
//
//	A — historical system metrics (averages over past executions)
//	B — execution metadata (strings; key elements separated by
//	    non-alphanumeric characters are treated as token sequences)
//	C — allocated resources (scheduler-assigned, known before start)
//	T — job timestamps (weekday, hour, second of day)
//
// String features are encoded against a vocabulary built on the
// training set; unseen strings map to a reserved unknown id, which is
// what lets a trained model generalize to new users and pipelines
// (Fig. 10).
package features

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/gbdt"
	"repro/internal/trace"
)

// Feature group labels (Fig. 9c).
const (
	GroupHistory   = "A"
	GroupMetadata  = "B"
	GroupResources = "C"
	GroupTimestamp = "T"
)

// UnknownID is the categorical id reserved for strings absent from the
// training vocabulary.
const UnknownID = 0

// isTokenByte is the one definition of a token character: an ASCII
// letter or digit. Every byte of a multi-byte UTF-8 sequence (and every
// invalid byte) is >= 0x80, so scanning bytes splits a string exactly
// where scanning runes would.
func isTokenByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// nextToken returns the first token of s at or after byte offset from,
// as a substring of s, and the offset just past it. The token is ""
// once s is exhausted.
func nextToken(s string, from int) (string, int) {
	for from < len(s) && !isTokenByte(s[from]) {
		from++
	}
	end := from
	for end < len(s) && isTokenByte(s[end]) {
		end++
	}
	return s[from:end], end
}

// metadataFields names the five string features of Table 2, in the
// order metadataField reads them.
var metadataFields = [...]string{"build_target_name", "execution_name", "pipeline_name", "step_name", "user_name"}

// metadataField returns string field f of m. It is a switch, not a
// table of accessor funcs: a call through a func value would move every
// Metadata it reads to the heap.
func metadataField(m *trace.Metadata, f int) string {
	switch f {
	case 0:
		return m.BuildTargetName
	case 1:
		return m.ExecutionName
	case 2:
		return m.PipelineName
	case 3:
		return m.StepName
	default:
		return m.UserName
	}
}

// tokensPerField is how many leading tokens of each metadata string get
// their own categorical feature (in addition to the full string).
const tokensPerField = 2

// numStringFeatures counts the vocabulary-encoded categorical features:
// per metadata field, the full string plus its leading tokens.
const numStringFeatures = len(metadataFields) * (1 + tokensPerField)

// Encoder maps jobs to numeric feature rows. String ids come from
// vocabularies frozen at training time (BuildEncoder); unseen strings
// map to UnknownID. The tables ship with the model.
type Encoder struct {
	// Vocabs holds one string->id table per categorical feature, in
	// schema order of the categorical features. Id 0 is reserved for
	// unknown values.
	Vocabs []map[string]int `json:"vocabs"`
	schema *gbdt.Schema
}

// numericFeatures lists (name, group) of the numeric features in order.
var numericFeatures = [...]struct{ name, group string }{
	{"average_tcio", GroupHistory},
	{"average_size", GroupHistory},
	{"average_lifetime", GroupHistory},
	{"average_io_density", GroupHistory},
	{"history_num_runs", GroupHistory},
	{"bucket_sizing_initial_num_stripes", GroupResources},
	{"bucket_sizing_num_shards", GroupResources},
	{"bucket_sizing_num_worker_threads", GroupResources},
	{"bucket_sizing_num_workers", GroupResources},
	{"initial_num_buckets", GroupResources},
	{"num_buckets", GroupResources},
	{"records_written", GroupResources},
	{"requested_num_shards", GroupResources},
	{"open_time_day_hour", GroupTimestamp},
	{"open_time_seconds", GroupTimestamp},
}

// categoricalFeatures lists (name, group) of the categorical features
// in schema order: weekday, then per metadata field the full string
// plus its leading tokens.
var categoricalFeatures = func() []struct{ name, group string } {
	out := make([]struct{ name, group string }, 0, 1+numStringFeatures)
	out = append(out, struct{ name, group string }{"open_time_weekday", GroupTimestamp})
	for _, name := range metadataFields {
		out = append(out, struct{ name, group string }{name, GroupMetadata})
		for t := 0; t < tokensPerField; t++ {
			out = append(out, struct{ name, group string }{
				fmt.Sprintf("%s_token%d", name, t), GroupMetadata})
		}
	}
	return out
}()

// categoricalValues extracts the raw string values of all categorical
// features of a job's metadata except weekday (which is encoded
// directly). Every value is the field itself or a substring of it, so
// this runs on the per-decision path without allocating.
func categoricalValues(m *trace.Metadata) (vals [numStringFeatures]string) {
	i := 0
	for f := range metadataFields {
		s := metadataField(m, f)
		vals[i] = s
		i++
		end := 0
		for t := 0; t < tokensPerField; t++ {
			vals[i], end = nextToken(s, end)
			i++
		}
	}
	return vals
}

// BuildEncoder constructs vocabularies from the training jobs. maxVocab
// caps each vocabulary's size (most frequent strings are kept); id 0 is
// reserved for unknown.
func BuildEncoder(jobs []*trace.Job, maxVocab int) *Encoder {
	if maxVocab <= 1 {
		maxVocab = 2048
	}
	// The jobs of a template share its metadata, so the strings are split
	// and counted once per distinct Metadata, weighted by its job count.
	// Every feature's strings are counted in one array, not a growing map
	// per feature: one (feature, string, count) entry per feature of each
	// Metadata, sorted by feature and string, then merged.
	perMeta := make(map[trace.Metadata]int)
	for _, j := range jobs {
		perMeta[j.Meta]++
	}
	counts := make([]vocabEntry, 0, numStringFeatures*len(perMeta))
	for m, n := range perMeta {
		for f, v := range categoricalValues(&m) {
			counts = append(counts, vocabEntry{f, v, n})
		}
	}
	slices.SortFunc(counts, func(a, b vocabEntry) int {
		if a.f != b.f {
			return cmp.Compare(a.f, b.f)
		}
		return cmp.Compare(a.s, b.s)
	})
	merged := counts[:0]
	for _, c := range counts {
		if last := len(merged) - 1; last >= 0 && merged[last].f == c.f && merged[last].s == c.s {
			merged[last].n += c.n
		} else {
			merged = append(merged, c)
		}
	}
	enc := &Encoder{Vocabs: make([]map[string]int, numStringFeatures)}
	for f := range enc.Vocabs {
		end := 0
		for end < len(merged) && merged[end].f == f {
			end++
		}
		items := merged[:end]
		merged = merged[end:]
		// Keep the most frequent strings; deterministic order by
		// (count desc, string asc).
		slices.SortFunc(items, func(a, b vocabEntry) int {
			if a.n != b.n {
				return cmp.Compare(b.n, a.n)
			}
			return cmp.Compare(a.s, b.s)
		})
		items = items[:min(len(items), maxVocab-1)]
		vocab := make(map[string]int, len(items)+1)
		for rank, it := range items {
			vocab[it.s] = rank + 1 // 0 reserved for unknown
		}
		enc.Vocabs[f] = vocab
	}
	enc.buildSchema()
	return enc
}

// vocabEntry counts string s of categorical feature f: its training-set
// frequency.
type vocabEntry struct {
	f int
	s string
	n int
}

// buildSchema lays out the schema of encoded rows: the numeric features,
// then the categorical ones, whose cardinalities the vocabularies set.
func (e *Encoder) buildSchema() {
	nf := len(numericFeatures) + len(categoricalFeatures)
	s := &gbdt.Schema{
		Names:  make([]string, 0, nf),
		Kinds:  make([]gbdt.FeatureKind, 0, nf),
		Cards:  make([]int, 0, nf),
		Groups: make([]string, 0, nf),
	}
	for _, f := range numericFeatures {
		s.Names = append(s.Names, f.name)
		s.Kinds = append(s.Kinds, gbdt.Numeric)
		s.Cards = append(s.Cards, 0)
		s.Groups = append(s.Groups, f.group)
	}
	for i, f := range categoricalFeatures {
		s.Names = append(s.Names, f.name)
		s.Kinds = append(s.Kinds, gbdt.Categorical)
		if i == 0 {
			s.Cards = append(s.Cards, 7) // weekday
		} else {
			s.Cards = append(s.Cards, len(e.Vocabs[i-1])+1)
		}
		s.Groups = append(s.Groups, f.group)
	}
	e.schema = s
}

// Schema returns the gbdt schema of encoded rows.
func (e *Encoder) Schema() *gbdt.Schema { return e.schema }

// NumFeatures returns the row width.
func (e *Encoder) NumFeatures() int { return e.schema.NumFeatures() }

// numNumeric counts the features Encode writes before the metadata
// strings' ids: groups A and C, the numeric timestamps and the weekday.
const numNumeric = len(numericFeatures) + 1

// Encode writes the job's feature row into buf (allocating if needed)
// and returns it.
func (e *Encoder) Encode(j *trace.Job, buf []float64) []float64 {
	nf := e.NumFeatures()
	if cap(buf) < nf {
		buf = make([]float64, nf)
	}
	buf = buf[:nf]
	encodeNumeric(j, buf[:numNumeric])
	e.stringIDs(&j.Meta, buf[numNumeric:])
	return buf
}

// encodeNumeric writes the job's first numNumeric features into buf.
func encodeNumeric(j *trace.Job, buf []float64) {
	i := 0
	put := func(v float64) { buf[i] = v; i++ }

	// Group A.
	put(j.History.AvgTCIO)
	put(j.History.AvgSizeBytes)
	put(j.History.AvgLifetime)
	put(j.History.AvgIODensity)
	put(float64(j.History.NumRuns))
	// Group C.
	put(float64(j.Resources.BucketSizingInitialNumStripes))
	put(float64(j.Resources.BucketSizingNumShards))
	put(float64(j.Resources.BucketSizingNumWorkerThreads))
	put(float64(j.Resources.BucketSizingNumWorkers))
	put(float64(j.Resources.InitialNumBuckets))
	put(float64(j.Resources.NumBuckets))
	put(float64(j.Resources.RecordsWritten))
	put(float64(j.Resources.RequestedNumShards))
	// Group T numeric.
	put(float64(j.HourOfDay()))
	put(j.SecondOfDay())
	// Weekday (categorical, direct encoding).
	put(float64(j.Weekday()))
}

// stringIDs writes the vocabulary ids of m's strings into out; a
// missing string reads as UnknownID (0), the map's zero value.
func (e *Encoder) stringIDs(m *trace.Metadata, out []float64) {
	for v, s := range categoricalValues(m) {
		out[v] = float64(e.Vocabs[v][s])
	}
}

// Dataset encodes a job slice into a gbdt dataset. Each distinct
// Metadata's string ids are looked up once and reused for its jobs.
func (e *Encoder) Dataset(jobs []*trace.Job) *gbdt.Dataset {
	ds := gbdt.NewDataset(e.schema, len(jobs))
	ids := make(map[trace.Metadata][numStringFeatures]float64)
	var num [numNumeric]float64
	for r, j := range jobs {
		encodeNumeric(j, num[:])
		for c, v := range num {
			ds.Cols[c][r] = v
		}
		vals, ok := ids[j.Meta]
		if !ok {
			e.stringIDs(&j.Meta, vals[:])
			ids[j.Meta] = vals
		}
		for v, id := range vals {
			ds.Cols[numNumeric+v][r] = id
		}
	}
	return ds
}

// FeatureGroups returns the group label of every feature, aligned with
// the schema.
func (e *Encoder) FeatureGroups() []string { return e.schema.Groups }

// LoadEncoder reads an encoder serialized as JSON, as the core
// package's model bundle writes it, and rebuilds its schema.
func LoadEncoder(r io.Reader) (*Encoder, error) {
	var e Encoder
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		return nil, fmt.Errorf("features: decode: %w", err)
	}
	if err := e.Finalize(); err != nil {
		return nil, err
	}
	return &e, nil
}

// Finalize validates a deserialized encoder and rebuilds its unexported
// schema. Callers that decode an Encoder embedded in a larger JSON
// payload (e.g. the wire ModelInfo) must call it before first use;
// LoadEncoder does so itself.
func (e *Encoder) Finalize() error {
	if len(e.Vocabs) != numStringFeatures {
		return fmt.Errorf("features: encoder has %d vocabularies, want %d", len(e.Vocabs), numStringFeatures)
	}
	e.buildSchema()
	return nil
}
