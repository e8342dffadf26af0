package features

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/gbdt"
	"repro/internal/trace"
)

// Tokenize splits an execution-metadata string into its key elements:
// maximal runs of alphanumeric characters (the paper: "key elements are
// separated by non-alphanumeric characters"). Tokens are substrings of
// s, not copies.
func Tokenize(s string) []string {
	var tokens []string
	for tok, end := nextToken(s, 0); tok != ""; tok, end = nextToken(s, end) {
		tokens = append(tokens, tok)
	}
	return tokens
}

// referenceTokenize is the rune-walking, copying tokenizer Tokenize
// replaced. It stays as the specification the zero-copy scanner is
// checked against.
func referenceTokenize(s string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return tokens
}

// checkTokenizers asserts that Tokenize and the hot path's leading-token
// scan both agree with the reference on s.
func checkTokenizers(t *testing.T, s string) {
	t.Helper()
	want := referenceTokenize(s)
	if got := Tokenize(s); !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize(%q) = %q, reference %q", s, got, want)
	}
	end := 0
	for i := 0; i < tokensPerField+1; i++ {
		var tok, ref string
		tok, end = nextToken(s, end)
		if i < len(want) {
			ref = want[i]
		}
		if tok != ref {
			t.Errorf("leading token %d of %q = %q, reference %q", i, s, tok, ref)
		}
	}
}

func FuzzTokenize(f *testing.F) {
	for _, s := range []string{
		"", "---", "//", "--abc", "abc--", "--abc--def--", "abc",
		"naïve.café", "日本語-abc", "Ⅷx٣", "a\xffb", "\xc3", "\xe2\x82", "a\x00b",
	} {
		f.Add(s)
	}
	for _, j := range sampleJobs()[:16] {
		for field := range metadataFields {
			f.Add(metadataField(&j.Meta, field))
		}
	}
	f.Fuzz(func(t *testing.T, s string) { checkTokenizers(t, s) })
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"//storage/x:build_manager", []string{"storage", "x", "build", "manager"}},
		{"com.example.query.launcher.Main", []string{"com", "example", "query", "launcher", "Main"}},
		{"", nil},
		{"---", nil},
		{"abc", []string{"abc"}},
		{"GroupByKey-22", []string{"GroupByKey", "22"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
		checkTokenizers(t, c.in)
	}
}

func TestCategoricalValuesMatchReference(t *testing.T) {
	for _, j := range sampleJobs() {
		vals := categoricalValues(&j.Meta)
		i := 0
		for field, name := range metadataFields {
			s := metadataField(&j.Meta, field)
			want := append([]string{s}, referenceTokenize(s)...)
			for len(want) < 1+tokensPerField {
				want = append(want, "")
			}
			for _, w := range want[:1+tokensPerField] {
				if vals[i] != w {
					t.Fatalf("job %s %s: value %d = %q, want %q", j.ID, name, i, vals[i], w)
				}
				i++
			}
		}
	}
}

// datasetDigest hashes every cell of a dataset, column-major, by its
// float64 bit pattern.
func datasetDigest(ds *gbdt.Dataset) string {
	h := sha256.New()
	var b [8]byte
	for _, col := range ds.Cols {
		for _, v := range col[:ds.N] {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDatasetGoldenDigest pins the encoded rows of the C0 sample trace
// to the digests the strings.Builder tokenizer produced (recorded at the
// commit before the zero-copy rewrite): a vocabulary built from all
// jobs, and a capped vocabulary built from half of them (unknown ids in
// play).
func TestDatasetGoldenDigest(t *testing.T) {
	jobs := sampleJobs()
	for _, c := range []struct {
		name string
		enc  *Encoder
		want string
	}{
		{"vocabulary", BuildEncoder(jobs, 0), "4abaf416afae68cffca1c05d341c045bde6145fc779be9d48c3a878546ab66e9"},
		{"capped vocabulary", BuildEncoder(jobs[:len(jobs)/2], 64), "ef30f904fee14f08baf8c409f25175875369acae37f552740a458843a82893d7"},
	} {
		if got := datasetDigest(c.enc.Dataset(jobs)); got != c.want {
			t.Errorf("%s encoder: dataset digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestEncodeSteadyStateAllocs is the feature path's allocation budget:
// encoding into a caller-owned row allocates nothing.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	jobs := sampleJobs()[:256]
	enc := BuildEncoder(jobs, 0)
	row := make([]float64, enc.NumFeatures())
	allocs := testing.AllocsPerRun(10, func() {
		for _, j := range jobs {
			row = enc.Encode(j, row)
		}
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per %d-job pass, want 0", allocs, len(jobs))
	}
}

func sampleJobs() []*trace.Job {
	cfg := trace.DefaultGeneratorConfig("C0", 101)
	cfg.DurationSec = 24 * 3600
	return trace.NewGenerator(cfg).Generate().Jobs
}

func TestBuildEncoderSchema(t *testing.T) {
	jobs := sampleJobs()
	enc := BuildEncoder(jobs, 0)
	s := enc.Schema()
	if err := s.Validate(); err != nil {
		t.Fatalf("schema invalid: %v", err)
	}
	if s.NumFeatures() != enc.NumFeatures() {
		t.Fatalf("feature count mismatch")
	}
	// Check group coverage: all four groups must be present.
	groups := map[string]int{}
	for _, g := range s.Groups {
		groups[g]++
	}
	for _, g := range []string{GroupHistory, GroupMetadata, GroupResources, GroupTimestamp} {
		if groups[g] == 0 {
			t.Errorf("no features in group %s", g)
		}
	}
	// Table 2 has 4 history + 8 resources + 3 timestamps + 5 metadata
	// fields; we add num_runs and per-field tokens.
	if groups[GroupHistory] != 5 || groups[GroupResources] != 8 || groups[GroupTimestamp] != 3 {
		t.Errorf("group counts = %v", groups)
	}
}

func TestEncodeDeterministicAndInRange(t *testing.T) {
	jobs := sampleJobs()
	enc := BuildEncoder(jobs, 0)
	s := enc.Schema()
	row1 := enc.Encode(jobs[0], nil)
	row2 := enc.Encode(jobs[0], nil)
	if !reflect.DeepEqual(row1, row2) {
		t.Fatal("encoding not deterministic")
	}
	for _, j := range jobs[:100] {
		row := enc.Encode(j, nil)
		for f, v := range row {
			if s.Kinds[f] == gbdt.Categorical {
				if v < 0 || int(v) >= s.Cards[f] {
					t.Fatalf("feature %s value %g outside cardinality %d", s.Names[f], v, s.Cards[f])
				}
			}
		}
	}
}

func TestEncodeUnseenStringsMapToUnknown(t *testing.T) {
	jobs := sampleJobs()
	enc := BuildEncoder(jobs, 0)
	// Every token here must be absent from generated metadata (which
	// uses tokens like "com", "production", "GroupByKey").
	novel := *jobs[0]
	novel.Meta = trace.Metadata{
		BuildTargetName: "//zzalpha/zzbeta:zzgamma",
		ExecutionName:   "zzdelta.zzepsilon.ZzMain",
		PipelineName:    "zzeta_pipelinezz",
		StepName:        "zzmystery-zzstep",
		UserName:        "ZzOp-9999",
	}
	row := enc.Encode(&novel, nil)
	s := enc.Schema()
	// All metadata-group categorical features must be UnknownID.
	sawMetadata := false
	for f := range row {
		if s.Groups[f] == GroupMetadata {
			sawMetadata = true
			if row[f] != UnknownID {
				t.Errorf("unseen metadata feature %s encoded as %g, want %d",
					s.Names[f], row[f], UnknownID)
			}
		}
	}
	if !sawMetadata {
		t.Fatal("no metadata features found")
	}
}

func TestVocabCapRespected(t *testing.T) {
	jobs := sampleJobs()
	enc := BuildEncoder(jobs, 4)
	for i, v := range enc.Vocabs {
		if len(v) > 3 { // cap 4 includes the reserved unknown id
			t.Errorf("vocab %d has %d entries, cap 4 allows 3", i, len(v))
		}
		for _, id := range v {
			if id == UnknownID {
				t.Errorf("vocab %d assigned reserved unknown id", i)
			}
		}
	}
}

// TestDatasetMatchesEncode: Dataset looks each distinct Metadata's ids
// up once and reuses them; every cell must still be Encode's, on
// generated jobs whose templates repeat and on jobs whose strings the
// vocabulary never saw, some sharing one novel Metadata.
func TestDatasetMatchesEncode(t *testing.T) {
	all := sampleJobs()
	if len(all) < 1000 {
		t.Fatalf("%d sample jobs, want at least 1000", len(all))
	}
	enc := BuildEncoder(all[:len(all)/2], 0)
	jobs := slices.Clone(all)
	for i, j := range all[:40] {
		novel := *j
		novel.Meta.StepName = fmt.Sprintf("zznovel-step%d", i%3)
		if i%4 == 0 {
			novel.Meta.UserName = "zz-unseen-user"
		}
		jobs = append(jobs, &novel)
	}
	metas := map[trace.Metadata]bool{}
	for _, j := range jobs {
		metas[j.Meta] = true
	}
	if len(metas) > len(jobs)/4 {
		t.Fatalf("%d distinct metadata over %d jobs: templates do not repeat", len(metas), len(jobs))
	}
	ds := enc.Dataset(jobs)
	if ds.N != len(jobs) {
		t.Fatalf("dataset rows = %d", ds.N)
	}
	if err := ds.Validate(); err != nil {
		t.Fatalf("dataset invalid: %v", err)
	}
	row := make([]float64, enc.NumFeatures())
	for i, j := range jobs {
		row = enc.Encode(j, row)
		for f, v := range row {
			if math.Float64bits(ds.Cols[f][i]) != math.Float64bits(v) {
				t.Fatalf("dataset[%d][%d] = %g, Encode = %g", i, f, ds.Cols[f][i], v)
			}
		}
	}
}

// TestVocabMatchesPerJobCount: BuildEncoder counts once per distinct
// Metadata, weighted by its jobs; its vocabularies must equal the ones a
// count over every job gives, ranked by (count desc, string asc), with
// no cap and with a cap that falls between two strings of equal count.
func TestVocabMatchesPerJobCount(t *testing.T) {
	jobs := sampleJobs()
	counts := make([]map[string]int, numStringFeatures)
	for i := range counts {
		counts[i] = map[string]int{}
	}
	for _, j := range jobs {
		for i, v := range categoricalValues(&j.Meta) {
			counts[i][v]++
		}
	}
	ranked := make([][]string, numStringFeatures)
	for i, c := range counts {
		for s := range c {
			ranked[i] = append(ranked[i], s)
		}
		slices.SortFunc(ranked[i], func(a, b string) int {
			if c[a] != c[b] {
				return c[b] - c[a]
			}
			return strings.Compare(a, b)
		})
	}
	want := func(maxVocab int) []map[string]int {
		out := make([]map[string]int, numStringFeatures)
		for i, r := range ranked {
			out[i] = map[string]int{}
			for rank, s := range r[:min(len(r), maxVocab-1)] {
				out[i][s] = rank + 1
			}
		}
		return out
	}
	// A cap that keeps a string and drops the next one, of equal count.
	tiedCap := 0
	for i, r := range ranked {
		for k := 1; k < len(r) && tiedCap == 0; k++ {
			if counts[i][r[k-1]] == counts[i][r[k]] {
				tiedCap = k + 1 // keeps r[:k]: r[k-1] in, r[k] out
			}
		}
	}
	if tiedCap == 0 {
		t.Fatal("no two strings of equal count to cut between")
	}
	for _, c := range []struct{ maxVocab, effective int }{{0, 2048}, {tiedCap, tiedCap}} {
		got := BuildEncoder(jobs, c.maxVocab).Vocabs
		if w := want(c.effective); !reflect.DeepEqual(got, w) {
			t.Errorf("maxVocab %d: vocabularies differ from the per-job count's", c.maxVocab)
		}
	}
}

// TestEncodePrefixAllocs: the training prefix, BuildEncoder and then
// Dataset, allocates per distinct Metadata and per column, never per
// job: 20k jobs of one trace allocate no more than its first 2k, whose
// distinct metadata are the same (slack of a tenth for map growth).
func TestEncodePrefixAllocs(t *testing.T) {
	cfg := trace.DefaultGeneratorConfig("C0", 3)
	cfg.DurationSec, cfg.NumUsers = 14*24*3600, 28
	jobs := trace.NewGenerator(cfg).Generate().Jobs
	if len(jobs) < 20000 {
		t.Fatalf("%d generated jobs, want 20000", len(jobs))
	}
	allocs := func(n int) float64 {
		sub := jobs[:n]
		return testing.AllocsPerRun(2, func() { BuildEncoder(sub, 0).Dataset(sub) })
	}
	small, large := allocs(2000), allocs(20000)
	t.Logf("%.0f allocations for 2k jobs, %.0f for 20k", small, large)
	if large > small+small/10 {
		t.Errorf("%.0f allocations for 20k jobs against %.0f for 2k: the prefix allocates per job", large, small)
	}
}

func TestEncoderSerializationRoundTrip(t *testing.T) {
	jobs := sampleJobs()
	enc := BuildEncoder(jobs, 64)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(enc); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := LoadEncoder(&buf)
	if err != nil {
		t.Fatalf("LoadEncoder: %v", err)
	}
	r1 := enc.Encode(jobs[3], nil)
	r2 := got.Encode(jobs[3], nil)
	if !reflect.DeepEqual(r1, r2) {
		t.Error("encoding differs after round trip")
	}
	if got.Schema().NumFeatures() != enc.Schema().NumFeatures() {
		t.Error("schema differs after round trip")
	}
}

func TestLoadEncoderRejectsCorrupt(t *testing.T) {
	if _, err := LoadEncoder(bytes.NewBufferString("nope")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadEncoder(bytes.NewBufferString(`{"vocabs":[{}]}`)); err == nil {
		t.Error("wrong vocab count accepted")
	}
	// A hashing-mode file names buckets and no vocabularies; there is no
	// hashing mode to read it.
	if _, err := LoadEncoder(bytes.NewBufferString(`{"vocabs":null,"hash_buckets":8}`)); err == nil {
		t.Error("hash-bucket encoder without vocabularies accepted")
	}
}

func TestHistoryFeaturesEncoded(t *testing.T) {
	jobs := sampleJobs()
	enc := BuildEncoder(jobs, 0)
	s := enc.Schema()
	var j *trace.Job
	for _, cand := range jobs {
		if cand.History.NumRuns > 0 {
			j = cand
			break
		}
	}
	if j == nil {
		t.Skip("no job with history")
	}
	row := enc.Encode(j, nil)
	idx := map[string]int{}
	for f, n := range s.Names {
		idx[n] = f
	}
	if row[idx["average_tcio"]] != j.History.AvgTCIO {
		t.Errorf("average_tcio = %g, want %g", row[idx["average_tcio"]], j.History.AvgTCIO)
	}
	if row[idx["history_num_runs"]] != float64(j.History.NumRuns) {
		t.Errorf("history_num_runs = %g, want %d", row[idx["history_num_runs"]], j.History.NumRuns)
	}
	if row[idx["open_time_weekday"]] != float64(j.Weekday()) {
		t.Errorf("weekday = %g, want %d", row[idx["open_time_weekday"]], j.Weekday())
	}
}
