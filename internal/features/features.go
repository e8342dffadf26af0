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
	"math"
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
// map to UnknownID. The vocabularies ship with the model, in the JSON
// form MarshalJSON writes.
type Encoder struct {
	// ids holds every string feature's vocabulary in one table: ids[s][f]
	// is s's id in the f-th one's, UnknownID when that one lacks s. Ids
	// are uint16s, as the binner's bins are.
	ids    map[string][numStringFeatures]uint16
	schema gbdt.Schema
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

// rowSchema is the part of every encoder's schema that no vocabulary
// sets: the numeric features, then the categorical ones (weekday, then
// per metadata field the full string plus its leading tokens). Every
// schema shares its Names, Kinds and Groups arrays, capped at their
// length so that an append copies them; only Cards is per encoder.
var rowSchema = func() gbdt.Schema {
	var s gbdt.Schema
	add := func(name, group string, kind gbdt.FeatureKind) {
		s.Names = append(s.Names, name)
		s.Kinds = append(s.Kinds, kind)
		s.Groups = append(s.Groups, group)
	}
	for _, f := range numericFeatures {
		add(f.name, f.group, gbdt.Numeric)
	}
	add("open_time_weekday", GroupTimestamp, gbdt.Categorical)
	for _, name := range metadataFields {
		add(name, GroupMetadata, gbdt.Categorical)
		for t := 0; t < tokensPerField; t++ {
			add(fmt.Sprintf("%s_token%d", name, t), GroupMetadata, gbdt.Categorical)
		}
	}
	return gbdt.Schema{Names: slices.Clip(s.Names), Kinds: slices.Clip(s.Kinds), Groups: slices.Clip(s.Groups)}
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
// caps each vocabulary's size (most frequent strings are kept, at most
// 65,535 of them); id 0 is reserved for unknown.
func BuildEncoder(jobs []*trace.Job, maxVocab int) *Encoder {
	if maxVocab <= 1 {
		maxVocab = 2048
	}
	// The jobs of a template share its metadata, so the strings are split
	// and counted once per distinct Metadata, weighted by its job count.
	// Every feature's strings are counted in one array, not a growing map
	// per feature: one (feature, string, count) entry per feature of each
	// Metadata, sorted by feature and string, then merged. Room for 256
	// templates up front spares the template map a growth per doubling.
	perMeta := make(map[trace.Metadata]int, min(len(jobs), 256))
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
	// One table for every vocabulary; len(merged) bounds its strings.
	ids := make(map[string][numStringFeatures]uint16, len(merged))
	var sizes [numStringFeatures]int
	for f := range sizes {
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
		items = items[:min(len(items), maxVocab-1, math.MaxUint16)]
		for rank, it := range items {
			v := ids[it.s]
			v[f] = uint16(rank + 1) // 0 reserved for unknown
			ids[it.s] = v
		}
		sizes[f] = len(items)
	}
	return newEncoder(ids, &sizes)
}

// vocabEntry counts string s of categorical feature f: its training-set
// frequency.
type vocabEntry struct {
	f int
	s string
	n int
}

// newEncoder returns the encoder over table ids, whose f-th vocabulary
// holds sizes[f] strings.
func newEncoder(ids map[string][numStringFeatures]uint16, sizes *[numStringFeatures]int) *Encoder {
	e := &Encoder{ids: ids, schema: rowSchema}
	e.schema.Cards = make([]int, len(rowSchema.Names))
	e.schema.Cards[numNumeric-1] = 7 // weekday
	for f, n := range sizes {
		e.schema.Cards[numNumeric+f] = n + 1 // and the unknown id
	}
	return e
}

// Schema returns the gbdt schema of encoded rows.
func (e *Encoder) Schema() *gbdt.Schema { return &e.schema }

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
		out[v] = float64(e.ids[s][v])
	}
}

// Dataset encodes a job slice into a gbdt dataset. Each distinct
// Metadata's string ids are looked up once and reused for its jobs.
func (e *Encoder) Dataset(jobs []*trace.Job) *gbdt.Dataset {
	ds := gbdt.NewDataset(&e.schema, len(jobs))
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

// MarshalJSON writes the encoder's vocabularies as
// {"vocabs":[{"<string>":<id>,...},...]}, one object per string feature.
func (e *Encoder) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string][]map[string]int{"vocabs": e.vocabs()})
}

// vocabs returns the table as one string->id map per string feature.
func (e *Encoder) vocabs() []map[string]int {
	out := make([]map[string]int, numStringFeatures)
	for f := range out {
		out[f] = make(map[string]int, e.schema.Cards[numNumeric+f]-1)
	}
	for s, ids := range e.ids {
		for f, id := range ids {
			if id != UnknownID {
				out[f][s] = int(id)
			}
		}
	}
	return out
}

// UnmarshalJSON reads what MarshalJSON writes. It refuses a file without
// one vocabulary per string feature, and a vocabulary whose ids are not
// 1..len(vocabulary), each once, up to 65,535: any other id falls
// outside the vocabulary's cardinality or wraps through a uint16.
func (e *Encoder) UnmarshalJSON(b []byte) error {
	var file struct {
		Vocabs []map[string]int `json:"vocabs"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		return err
	}
	if len(file.Vocabs) != numStringFeatures {
		return fmt.Errorf("features: encoder has %d vocabularies, want %d", len(file.Vocabs), numStringFeatures)
	}
	ids := make(map[string][numStringFeatures]uint16)
	var sizes [numStringFeatures]int
	for f, vocab := range file.Vocabs {
		seen := make([]bool, len(vocab)+1)
		for s, id := range vocab {
			if id < 1 || id > len(vocab) || id > math.MaxUint16 || seen[id] {
				return fmt.Errorf("features: vocabulary %d gives %q id %d, want distinct ids in [1, %d]", f, s, id, len(vocab))
			}
			seen[id] = true
			v := ids[s]
			v[f] = uint16(id)
			ids[s] = v
		}
		sizes[f] = len(vocab)
	}
	*e = *newEncoder(ids, &sizes)
	return nil
}

// LoadEncoder reads an encoder serialized as JSON, as the core
// package's model bundle writes it.
func LoadEncoder(r io.Reader) (*Encoder, error) {
	var e Encoder
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		return nil, fmt.Errorf("features: decode: %w", err)
	}
	return &e, nil
}
