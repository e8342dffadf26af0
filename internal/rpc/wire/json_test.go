package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

// The reference for every differential test below: the same structs
// under types that can never grow a MarshalJSON or UnmarshalJSON, so
// encoding/json reflects over them, whatever PlaceRequest and
// PlaceResponse come to implement, and the codec is never compared
// against itself.
type (
	plainPlaceRequest  PlaceRequest
	plainPlaceResponse PlaceResponse
)

// fixtureJobs generates the jobs internal/rpc's test fixture serves
// (same generator config, the held-out half).
func fixtureJobs(tb testing.TB, n int) []*trace.Job {
	tb.Helper()
	cfg := trace.DefaultGeneratorConfig("rpc-test", 17)
	cfg.DurationSec = 2 * 24 * 3600
	cfg.NumUsers = 6
	tr := trace.NewGenerator(cfg).Generate()
	_, test := tr.SplitAt(tr.Duration() / 2)
	if len(test.Jobs) < n {
		tb.Fatalf("fixture has %d jobs, want %d", len(test.Jobs), n)
	}
	return test.Jobs[:n]
}

func fixtureDecisions(jobs []*trace.Job) []Decision {
	ds := make([]Decision, len(jobs))
	for i, j := range jobs {
		ds[i] = Decision{JobID: j.ID, Admit: i%2 == 0, Category: i % 15, ModelVersion: 1 + i%3, Shard: i % 8}
	}
	return ds
}

// TestJSONSchema holds the codec's field tables to the structs: same
// tags, same order, a kind that fits the Go type, every slot of a kind
// used exactly once per struct tree.
func TestJSONSchema(t *testing.T) {
	kinds := map[reflect.Kind]jsonKind{reflect.String: jsonString, reflect.Float64: jsonFloat, reflect.Int: jsonInt,
		reflect.Int64: jsonInt64, reflect.Bool: jsonBool, reflect.Struct: jsonObject}
	var check func(path string, typ reflect.Type, fields []jsonField, slots map[jsonKind]map[int]bool)
	check = func(path string, typ reflect.Type, fields []jsonField, slots map[jsonKind]map[int]bool) {
		if typ.NumField() != len(fields) {
			t.Fatalf("%s: struct has %d fields, table %d", path, typ.NumField(), len(fields))
		}
		for i, f := range fields {
			sf := typ.Field(i)
			if tag := sf.Tag.Get("json"); tag != f.name || string(f.fold) != f.name || f.quoted != `"`+f.name+`":` {
				t.Errorf("%s field %d: tag %q, table %q / %q / %q", path, i, tag, f.name, f.fold, f.quoted)
			}
			if kinds[sf.Type.Kind()] != f.kind {
				t.Errorf("%s.%s: Go kind %s, table kind %d", path, f.name, sf.Type.Kind(), f.kind)
			}
			if f.kind == jsonObject {
				check(path+"."+f.name, sf.Type, f.sub, slots)
				continue
			}
			if slots[f.kind] == nil {
				slots[f.kind] = map[int]bool{}
			}
			if slots[f.kind][f.slot] {
				t.Errorf("%s.%s: slot %d of kind %d used twice", path, f.name, f.slot, f.kind)
			}
			slots[f.kind][f.slot] = true
		}
	}
	jobSlots := map[jsonKind]map[int]bool{}
	check("Job", reflect.TypeOf(trace.Job{}), jobFields, jobSlots)
	var v jsonView
	for kind, want := range map[jsonKind]int{jsonString: len(v.strs), jsonFloat: len(v.f64s), jsonInt: len(v.ints), jsonInt64: len(v.i64s)} {
		if len(jobSlots[kind]) != want {
			t.Errorf("Job uses %d slots of kind %d, the view has %d", len(jobSlots[kind]), kind, want)
		}
	}
	check("Decision", reflect.TypeOf(Decision{}), decisionFields, map[jsonKind]map[int]bool{})
}

// distinctJob gives every field its own value, so a slot wired to the
// wrong field shows in a byte comparison.
func distinctJob() *trace.Job {
	j := &trace.Job{}
	n := 0 // filled through reflection, not through the view under test
	var fill func(reflect.Value)
	fill = func(rv reflect.Value) {
		for i := 0; i < rv.NumField(); i++ {
			n++
			switch f := rv.Field(i); f.Kind() {
			case reflect.String:
				f.SetString(fmt.Sprintf("s%d", n))
			case reflect.Float64:
				f.SetFloat(float64(n) + 0.25)
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(1000 + n))
			case reflect.Struct:
				fill(f)
			}
		}
	}
	fill(reflect.ValueOf(j).Elem())
	return j
}

// TestPlaceJSONBytesMatchEncodingJSON: the codec writes, byte for byte,
// what encoding/json writes for the method-less structs, over the
// fixture's jobs, strings that need every kind of escape, and the float
// values whose spelling encoding/json picks by its own rules.
func TestPlaceJSONBytesMatchEncodingJSON(t *testing.T) {
	jobs := append([]*trace.Job{distinctJob(), nil}, fixtureJobs(t, 64)...)
	tricky := *jobs[2]
	tricky.ID = "quote\" back\\ slash/ <html> & \b\f\n\r\t \x00\x1f\x7f é 日本 😀 \u2028\u2029 \xff\xc0\xaf\xed\xa0\x80 end"
	tricky.Meta.UserName = ""
	jobs = append(jobs, &tricky)
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e-10, 1e-100, 5e-324, 2.2250738585072014e-308,
		1e20, 999999999999999900000, 1e21, 1.5e21, 1e22, 1e100, math.MaxFloat64, -1e21, -1e-7, 123456789.125, 0.3, 1 / 3.0,
		68719476736, 4503599627370497.5, math.SmallestNonzeroFloat64, math.MaxInt64, 1e6, 1e-5}
	for _, f := range floats {
		j := *jobs[2]
		j.SizeBytes, j.History.AvgTCIO = f, -f
		jobs = append(jobs, &j)
	}
	for _, tc := range []struct {
		name string
		jobs []*trace.Job
	}{{"jobs", jobs}, {"nil", nil}, {"empty", []*trace.Job{}}} {
		want, err := json.Marshal(plainPlaceRequest{Jobs: tc.jobs})
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendPlaceRequestJSON([]byte("prefix"), tc.jobs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Errorf("request %s: codec and encoding/json disagree at byte %d:\n%s\n%s", tc.name, diffAt(got[6:], want), got[6:], want)
		}
	}
	for _, tc := range []struct {
		name string
		ds   []Decision
	}{{"decisions", append(fixtureDecisions(jobs[2:]), Decision{JobID: tricky.ID, Category: -3, ModelVersion: math.MaxInt64, Shard: math.MinInt64})},
		{"nil", nil}, {"empty", []Decision{}}} {
		want, err := json.Marshal(plainPlaceResponse{Decisions: tc.ds})
		if err != nil {
			t.Fatal(err)
		}
		got := AppendPlaceResponseJSON(nil, tc.ds)
		if !bytes.Equal(got, want) {
			t.Errorf("response %s: codec and encoding/json disagree at byte %d:\n%s\n%s", tc.name, diffAt(got, want), got, want)
		}
	}

	// What JSON cannot spell is refused by both, and the buffer comes back
	// as it went in.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		j := *jobs[2]
		j.History.AvgLifetime = f
		bad := []*trace.Job{jobs[2], &j}
		if _, err := json.Marshal(plainPlaceRequest{Jobs: bad}); err == nil {
			t.Fatalf("encoding/json wrote %v", f)
		}
		got, err := AppendPlaceRequestJSON([]byte("keep"), bad)
		if err == nil || string(got) != "keep" {
			t.Errorf("%v: err %v, buffer %q", f, err, got)
		}
	}
}

func diffAt(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// placeJSONSeeds are the documents the differential test replays and
// the fuzz target starts from. Each goes to both decoders.
func placeJSONSeeds(tb testing.TB) [][]byte {
	jobs := fixtureJobs(tb, 3)
	fixtureReq, _ := json.Marshal(plainPlaceRequest{Jobs: jobs})
	fixtureResp, _ := json.Marshal(plainPlaceResponse{Decisions: fixtureDecisions(jobs)})
	indented, _ := json.MarshalIndent(plainPlaceRequest{Jobs: jobs[:1]}, " ", "\t")
	seeds := [][]byte{fixtureReq, fixtureResp, indented,
		[]byte(`{"jobs":[{"id":"j","lifetime_sec":1,"size_bytes":1}]}` + strings.Repeat(" ", 1<<10)),
		// A skipped unknown value nested as deep as the scanner allows, and one deeper.
		[]byte(`{"x":` + strings.Repeat("[", jsonMaxDepth-1) + strings.Repeat("]", jsonMaxDepth-1) + `,"jobs":[{"id":"deep"}]}`),
		[]byte(`{"x":` + strings.Repeat("[", jsonMaxDepth) + strings.Repeat("]", jsonMaxDepth) + `,"jobs":[{"id":"deep"}]}`),
		[]byte(`{"x":` + strings.Repeat(`{"a":`, jsonMaxDepth-1) + `1` + strings.Repeat("}", jsonMaxDepth-1) + `}`),
		[]byte(`{"jobs":[{"id":"","cluster":"` + strings.Repeat("x", 1<<20) + `","user":"` + strings.Repeat(`\u00e9\n`, 1<<10) + `"}]}`),
	}
	for _, s := range []string{
		// Escapes, surrogates, invalid UTF-8.
		`{"jobs":[{"id":"a\"b\\c\/d\b\f\n\r\t\u0041\u00e9\u65e5\u0000","step":"plain é 日本"}]}`,
		`{"jobs":[{"id":"\ud83d\ude00","cluster":"\ud800","user":"\udc00","pipeline":"\ud800x","step":"\ud800\u0041"}]}`,
		`{"jobs":[{"id":"\ud83d\ud83d\ude00","cluster":"\ud83d\ude00\ude00","user":"\uD83D\uDE00","pipeline":"\ud800\n","step":"\udbff\udfff"}]}`,
		"{\"jobs\":[{\"id\":\"\xff\",\"cluster\":\"a\xc0\xafb\",\"user\":\"\xed\xa0\x80\",\"pipeline\":\"\xf0\x9f\x98\",\"step\":\"\xe6\x97\xa5\"}]}",
		"{\"jobs\":[{\"i\xffd\":\"x\",\"\xff\":1}]}",
		`{"jobs":[{"id":"\ud800`, `{"jobs":[{"id":"\ud800\u"}]}`, `{"jobs":[{"id":"\ud800\u12"}]}`, `{"jobs":[{"id":"\u12G4"}]}`,
		`{"jobs":[{"id":"\x"}]}`, `{"jobs":[{"id":"\'"}]}`, `{"jobs":[{"id":"a` + "\n" + `b"}]}`, `{"jobs":[{"id":"a` + "\x1f" + `"}]}`,
		`{"jobs":[{"id":"tab` + "\t" + `"}]}`, `{"jobs":[{"id":"del` + "\x7f" + `"}]}`, `{"jobs":[{"id":"\`,
		// Duplicate keys: scalars last-wins, nested structs merge, arrays
		// decode into earlier arrays' elements.
		`{"jobs":[{"id":"a","id":"b","meta":{"user_name":"u"},"size_bytes":1,"meta":{"step_name":"s"},"size_bytes":2,"id":null}]}`,
		`{"jobs":[{"id":"a"},{"id":"b"}],"jobs":[{"cluster":"c"}],"jobs":[{"user":"u"},{"step":"s"},{"id":"new"}]}`,
		`{"jobs":[{"id":"a"},{"id":"b"}],"jobs":[null],"jobs":[{"user":"u"},{"step":"s"}]}`,
		`{"jobs":[{"id":"a"},{"id":"b"}],"jobs":null,"jobs":[{"user":"u"}]}`,
		`{"jobs":[{"id":"a"},{"id":"b"}],"jobs":[],"jobs":[{"user":"u"},{"user":"v"},{"user":"w"}]}`,
		`{"jobs":[{"id":"a"},{"id":"b"},{"id":"c"}],"jobs":[{}],"jobs":[{},{},{},{},{}]}`,
		`{"jobs":[{"id":"a"}],"jobs":null}`, `{"jobs":[{"id":"a"}],"jobs":[]}`, `{"jobs":null,"jobs":[]}`,
		`{"jobs":[{"id":"a"}],"JOBS":[{"lifetime_sec":1}],"Jobs":[{"size_bytes":1}]}`,
		// Keys: case folding, Unicode folds (K for k, ſ for s), escapes.
		`{"JOBS":[{"ID":"x","Size_Bytes":1,"LIFETIME_SEC":2,"META":{"User_Name":"u"}}]}`,
		`{"jobs":[{"u\u017fer":"long-s","resources":{"num_buc\u212aets":7,"Num_Buckets":8},"\u0069d":"escaped-key"}]}`,
		"{\"jobs\":[{\"u\u017fer\":\"raw-long-s\",\"resources\":{\"num_buc\u212aets\":7}}]}",
		`{"jobs":[{"id ":"x"," id":"y","i d":"z","":"e","idd":1,"meta":{"id":"not-here"}}]}`,
		`{"jobs":[{"id":"x","unknown":{"a":[1,2,{"b":null}],"c":"\ud800","d":-1.5e+3},"also":[[],{}]}],"extra":true}`,
		// null for every field kind and at every level.
		`null`, ` null `, `{"jobs":null}`, `{"jobs":[null]}`, `{"jobs":[null,{"id":"a"},null]}`,
		`{"jobs":[{"id":null,"arrival_sec":null,"meta":null,"resources":{"num_buckets":null,"records_written":null},"history":null}]}`,
		`{"jobs":[{"id":"a","arrival_sec":3,"meta":{"user_name":"u"},"id":null,"arrival_sec":null,"meta":null}]}`,
		// Numbers.
		`{"jobs":[{"arrival_sec":-0,"size_bytes":-0.0,"resources":{"num_buckets":-0,"records_written":-0},"read_bytes":0e0}]}`,
		`{"jobs":[{"resources":{"num_buckets":1e3}}]}`, `{"jobs":[{"resources":{"num_buckets":1.0}}]}`,
		`{"jobs":[{"resources":{"records_written":1e3}}]}`, `{"jobs":[{"history":{"num_runs":1E3}}]}`,
		`{"jobs":[{"resources":{"num_buckets":9223372036854775807,"records_written":-9223372036854775808}}]}`,
		`{"jobs":[{"resources":{"num_buckets":9223372036854775808}}]}`, `{"jobs":[{"resources":{"records_written":-9223372036854775809}}]}`,
		`{"jobs":[{"resources":{"num_buckets":123456789012345678901234567890}}]}`,
		`{"jobs":[{"size_bytes":1e400}]}`, `{"jobs":[{"size_bytes":-1e400}]}`, `{"jobs":[{"size_bytes":1e-400,"read_bytes":1e308,"write_bytes":1.7976931348623157e308}]}`,
		`{"jobs":[{"size_bytes":1.7976931348623159e308}]}`, `{"jobs":[{"size_bytes":0.1e1,"read_bytes":1E+2,"write_bytes":1e-2,"arrival_sec":12345678901234567890123456789012345678901234567890}]}`,
		`{"jobs":[{"size_bytes":01}]}`, `{"jobs":[{"size_bytes":1.}]}`, `{"jobs":[{"size_bytes":.5}]}`, `{"jobs":[{"size_bytes":1e}]}`,
		`{"jobs":[{"size_bytes":+1}]}`, `{"jobs":[{"size_bytes":-}]}`, `{"jobs":[{"size_bytes":1e+}]}`, `{"jobs":[{"size_bytes":0x10}]}`,
		`{"jobs":[{"size_bytes":1_000}]}`, `{"jobs":[{"size_bytes":NaN}]}`, `{"jobs":[{"size_bytes":Infinity}]}`, `{"jobs":[{"size_bytes":--1}]}`,
		`{"x":01}`, `{"x":1.}`, `{"x":-}`, `{"x":1e}`, `{"x":[1,2,]}`, `{"x":[,1]}`, `{"x":{"a":1,}}`, `{"x":{,}}`, `{"x":tru}`, `{"x":nul}`, `{"x":falsey}`,
		// Types that do not fit.
		`{"jobs":{}}`, `{"jobs":"x"}`, `{"jobs":5}`, `{"jobs":true}`, `{"jobs":[5]}`, `{"jobs":["x"]}`, `{"jobs":[[]]}`, `{"jobs":[true]}`,
		`{"jobs":[{"id":5}]}`, `{"jobs":[{"id":true}]}`, `{"jobs":[{"id":{}}]}`, `{"jobs":[{"size_bytes":"1"}]}`, `{"jobs":[{"size_bytes":true}]}`,
		`{"jobs":[{"meta":[]}]}`, `{"jobs":[{"meta":"m"}]}`, `{"jobs":[{"meta":1}]}`, `{"jobs":[{"resources":{"num_buckets":"1"}}]}`,
		`{"jobs":[{"resources":{"num_buckets":false}}]}`, `[]`, `5`, `"x"`, `true`, `[{"jobs":[]}]`,
		// Syntax, white space, the end of the document.
		``, ` `, `{`, `}`, `{"jobs"`, `{"jobs":`, `{"jobs":[`, `{"jobs":[{`, `{"jobs":[{}`, `{"jobs":[{}]`, `{"jobs":[{}],}`, `{"jobs":[{},]}`,
		`{"jobs":[{}}]}`, `{"jobs" [{}]}`, `{"jobs":[{} {}]}`, `{jobs:[]}`, `{'jobs':[]}`, `{"jobs":[{"id":"a"}]}}`, `{"jobs":[{"id" "a"}]}`,
		" \t\r\n{ \"jobs\" : [ { \"id\" : \"ws\" , \"size_bytes\" : 1 } , null ] } \r\n\t ", "\ufeff{\"jobs\":[]}", "{\"jobs\":[]}\x00", "\v{}", "{}\f",
		`{"jobs":[{"id":"a","lifetime_sec":1,"size_bytes":1}]} garbage`, `{"jobs":[{"id":"a","lifetime_sec":1,"size_bytes":1}]}{"jobs":[]}`,
		`{"jobs":[{"id":"a"}]} {}`, `{"jobs":[{"id":"a"}]}]`, `{"jobs":[{"id":"a"}]},`, `{}`, `{"jobs":[]}`, `{"jobs":[{}]}`, `null null`, `nullx`,
		// Responses.
		`{"decisions":[{"job_id":"a","admit":true,"category":3,"model_version":1,"shard":2},{"job_id":"","admit":false,"category":-1,"model_version":0,"shard":0}]}`,
		`{"decisions":[null,{"job_id":"b"},null]}`, `{"decisions":null}`, `{"decisions":[]}`, `{"DECISIONS":[{"JOB_ID":"x","Admit":true,"\u0061dmit":false}]}`,
		`{"decisions":[{"job_id":"a","category":1},{"job_id":"b"}],"decisions":[{"shard":5}],"decisions":[null,{"admit":true},{"job_id":"c"}]}`,
		`{"decisions":[{"job_id":"a"}],"decisions":null,"decisions":[{"shard":1}]}`, `{"decisions":[{"job_id":"a"}],"decisions":[],"decisions":[{},{}]}`,
		`{"decisions":[{"admit":1}]}`, `{"decisions":[{"admit":"true"}]}`, `{"decisions":[{"admit":null,"category":null,"job_id":null}]}`,
		`{"decisions":[{"category":1.5}]}`, `{"decisions":[{"category":1e2}]}`, `{"decisions":[{"shard":9223372036854775808}]}`, `{"decisions":[{"job_id":7}]}`,
		`{"decisions":[{"job_id":"\u003chtml\u003e \ud83d\ude00 \ud800","admit":true}]}`, `{"decisions":{}}`, `{"decisions":[1]}`, `{"decisions":[{"admit":tru}]}`,
		`{"decisions":[{"job_id":"a"}],"jobs":[{"id":"both"}]}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// checkPlaceJSON is the differential oracle: data through the codec and
// through encoding/json on the method-less structs must be accepted or
// refused alike, decode to the same value, validate alike and encode
// back to the same bytes. sc is reused from call to call, as a pooled
// scratch is; reused is the response decoder's.
func checkPlaceJSON(t *testing.T, data []byte, sc *JSONScratch, reused *PlaceResponse) {
	t.Helper()
	var want plainPlaceRequest
	wantErr := json.Unmarshal(data, &want)
	var got PlaceRequest
	gotErr := DecodePlaceRequestJSON(data, &got, sc)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("request %q: encoding/json says %v, the codec %v", clip(data), wantErr, gotErr)
	}
	if wantErr == nil {
		if !reflect.DeepEqual(want.Jobs, got.Jobs) {
			t.Fatalf("request %q decodes differently:\nencoding/json %s\ncodec         %s", clip(data), dump(want.Jobs), dump(got.Jobs))
		}
		for _, maxBatch := range []int{0, 2} {
			if w, g := (*PlaceRequest)(&want).Validate(maxBatch), got.Validate(maxBatch); fmt.Sprint(w) != fmt.Sprint(g) {
				t.Fatalf("request %q validates differently: %v, %v", clip(data), w, g)
			}
		}
		wantBytes, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("request %q: encoding/json cannot write what it read: %v", clip(data), err)
		}
		gotBytes, err := AppendPlaceRequestJSON(nil, got.Jobs)
		if err != nil || !bytes.Equal(wantBytes, gotBytes) {
			t.Fatalf("request %q re-encodes differently (%v):\n%s\n%s", clip(data), err, clip(wantBytes), clip(gotBytes))
		}
	}

	var wantResp plainPlaceResponse
	wantErr = json.Unmarshal(data, &wantResp)
	// The hint is only ever a string to share: whatever the request held.
	gotErr = DecodePlaceResponseJSON(data, reused, append([]*trace.Job{{ID: "a"}, nil, {ID: ""}}, got.Jobs...))
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("response %q: encoding/json says %v, the codec %v", clip(data), wantErr, gotErr)
	}
	if wantErr == nil {
		if !reflect.DeepEqual(wantResp.Decisions, reused.Decisions) {
			t.Fatalf("response %q decodes differently:\nencoding/json %+v\ncodec         %+v", clip(data), wantResp.Decisions, reused.Decisions)
		}
		wantBytes, _ := json.Marshal(wantResp)
		if gotBytes := AppendPlaceResponseJSON(nil, reused.Decisions); !bytes.Equal(wantBytes, gotBytes) {
			t.Fatalf("response %q re-encodes differently:\n%s\n%s", clip(data), clip(wantBytes), clip(gotBytes))
		}
	}
}

func clip(b []byte) string {
	if len(b) > 300 {
		return fmt.Sprintf("%s…(%d bytes)", b[:300], len(b))
	}
	return string(b)
}

func dump(jobs []*trace.Job) string {
	if jobs == nil {
		return "nil"
	}
	var sb strings.Builder
	for _, j := range jobs {
		if j == nil {
			sb.WriteString("<nil> ")
		} else {
			fmt.Fprintf(&sb, "%+v ", *j)
		}
	}
	return sb.String()
}

// TestPlaceJSONMatchesEncodingJSON replays the seed documents through
// the oracle, in order and in reverse, on one scratch: what a pooled
// scratch sees, with every document's leftovers under the next one.
func TestPlaceJSONMatchesEncodingJSON(t *testing.T) {
	seeds := placeJSONSeeds(t)
	var sc JSONScratch
	var resp PlaceResponse
	for _, data := range seeds {
		checkPlaceJSON(t, data, &sc, &resp)
	}
	for i := len(seeds) - 1; i >= 0; i-- {
		checkPlaceJSON(t, seeds[i], &sc, &resp)
	}
}

// TestPlaceJSONTrailingData pins the one place the daemon's behaviour
// moved: json.Decoder.Decode, which the handlers used, stops at the end
// of the first value; the codec, like json.Unmarshal, refuses whatever
// follows it but white space.
func TestPlaceJSONTrailingData(t *testing.T) {
	doc := `{"jobs":[{"id":"a","lifetime_sec":1,"size_bytes":1}]}`
	for _, tail := range []string{" garbage", doc, "]", ",", "\x00", " null"} {
		var old plainPlaceRequest
		if err := json.NewDecoder(strings.NewReader(doc + tail)).Decode(&old); err != nil {
			t.Fatalf("tail %q: the old handler's decoder refused it: %v", tail, err)
		}
		var req PlaceRequest
		err := DecodePlaceRequestJSON([]byte(doc+tail), &req, new(JSONScratch))
		if err == nil || !strings.Contains(err.Error(), "after the document") || req.Jobs != nil {
			t.Errorf("tail %q: err %v, jobs %v", tail, err, req.Jobs)
		}
	}
	var req PlaceRequest
	if err := DecodePlaceRequestJSON([]byte(doc+" \r\n\t"), &req, new(JSONScratch)); err != nil || len(req.Jobs) != 1 {
		t.Errorf("trailing white space: %v", err)
	}
}

// TestPlaceJSONStringOwnership: a request's strings are substrings of
// one string the decode allocated, not views of the body or the
// scratch, so a copy of a job outlives both; the Job structs are the
// scratch's and are overwritten by its next decode.
func TestPlaceJSONStringOwnership(t *testing.T) {
	jobs := fixtureJobs(t, 8)
	body, _ := AppendPlaceRequestJSON(nil, jobs[:4])
	var sc JSONScratch
	var req PlaceRequest
	if err := DecodePlaceRequestJSON(body, &req, &sc); err != nil {
		t.Fatal(err)
	}
	first := req.Jobs[0]
	kept := *first
	for i := range body {
		body[i] = 'X'
	}
	body2, _ := AppendPlaceRequestJSON(nil, jobs[4:])
	var req2 PlaceRequest
	if err := DecodePlaceRequestJSON(body2, &req2, &sc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&kept, jobs[0]) {
		t.Errorf("a copied job changed under the scratch's reuse:\n%+v\n%+v", kept, *jobs[0])
	}
	if req2.Jobs[0] != first || !reflect.DeepEqual(first, jobs[4]) {
		t.Errorf("the slab was not reused in place: %p %p", req2.Jobs[0], first)
	}
}

// TestJSONCodecSteadyStateAllocs is the codec's budget on a 64-job
// batch with warm storage: nothing to encode either document; one
// allocation to decode a request, the string its 640 strings share,
// with 1 of headroom; none to decode a response whose job IDs are the
// request's, with 1 of headroom.
func TestJSONCodecSteadyStateAllocs(t *testing.T) {
	jobs := fixtureJobs(t, 64)
	decisions := fixtureDecisions(jobs)
	var body, rbody []byte
	var sc JSONScratch
	var req PlaceRequest
	resp := PlaceResponse{Decisions: make([]Decision, 0, len(jobs))}
	for _, tc := range []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"encode request", 0, func() (err error) { body, err = AppendPlaceRequestJSON(body[:0], jobs); return }},
		{"encode response", 0, func() error { rbody = AppendPlaceResponseJSON(rbody[:0], decisions); return nil }},
		{"decode request", 2, func() error { return DecodePlaceRequestJSON(body, &req, &sc) }},
		{"decode response", 1, func() error { return DecodePlaceResponseJSON(rbody, &resp, jobs) }},
	} {
		if err := tc.run(); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.2f allocations per 64-job document", tc.name, got)
		if got > tc.budget {
			t.Errorf("%s: %.2f allocations per 64-job document, budget %.0f", tc.name, got, tc.budget)
		}
	}
	if !reflect.DeepEqual(req.Jobs, jobs) || !reflect.DeepEqual(resp.Decisions, decisions) {
		t.Error("the measured round trip lost data")
	}
	if &resp.Decisions[0].JobID == &jobs[0].ID || resp.Decisions[0].JobID != jobs[0].ID {
		t.Error("decision job IDs are not the request's")
	}
}

// FuzzPlaceJSON: arbitrary bytes through checkPlaceJSON.
func FuzzPlaceJSON(f *testing.F) {
	for _, seed := range placeJSONSeeds(f) {
		f.Add(seed)
	}
	var sc JSONScratch
	var resp PlaceResponse
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPlaceJSON(t, data, &sc, &resp)
	})
}
