package wire

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/trace"
)

// JSON codec: the place request and response documents, written and
// read without reflection. The package doc has the contract; this file
// has one schema (a table per struct, in declaration order), one object
// reader and one object writer over it, and the two array rules
// encoding/json applies to a slice field.

// jsonKind is the Go type behind one struct field.
type jsonKind uint8

const (
	jsonString jsonKind = iota
	jsonBool
	jsonObject
	jsonFloat // from here on, kinds a number literal decodes into
	jsonInt
	jsonInt64
)

var jsonKindNames = [...]string{"string", "boolean", "object", "number", "integer", "integer"}

// jsonField is one struct field: its tag, the bytes both directions
// need of it, and where a jsonView holds its address.
type jsonField struct {
	name   string
	fold   []byte // name, for bytes.EqualFold against a key
	quoted string // `"name":`
	kind   jsonKind
	slot   int         // index into the jsonView array of this kind
	sub    []jsonField // jsonObject: the nested struct
}

// jsonFields lists consecutive fields of one kind, in slots first,
// first+1 and up.
func jsonFields(kind jsonKind, first int, names ...string) []jsonField {
	fs := make([]jsonField, len(names))
	for i, name := range names {
		fs[i] = jsonField{name: name, fold: []byte(name), quoted: `"` + name + `":`, kind: kind, slot: first + i}
	}
	return fs
}

func jsonObjectField(name string, sub []jsonField) []jsonField {
	fs := jsonFields(jsonObject, 0, name)
	fs[0].sub = sub
	return fs
}

// The schema: trace.Job with its three nested structs, and Decision,
// each in declaration order, which is the order json.Marshal writes.
// A job's strings, floats and ints are numbered across the nested
// structs, the way the outcome frame lays them out. TestJSONSchema
// holds the tables to the struct tags.
var (
	jobFields = slices.Concat(
		jsonFields(jsonString, 0, "id", "cluster", "user", "pipeline", "step"),
		jsonFields(jsonFloat, 0, "arrival_sec", "lifetime_sec", "size_bytes", "read_bytes", "write_bytes",
			"avg_read_size_bytes", "cache_hit_frac"),
		jsonObjectField("meta", jsonFields(jsonString, 5,
			"build_target_name", "execution_name", "pipeline_name", "step_name", "user_name")),
		jsonObjectField("resources", slices.Concat(
			jsonFields(jsonInt, 0, "bucket_sizing_initial_num_stripes", "bucket_sizing_num_shards",
				"bucket_sizing_num_worker_threads", "bucket_sizing_num_workers", "initial_num_buckets", "num_buckets"),
			jsonFields(jsonInt64, 0, "records_written"),
			jsonFields(jsonInt, 6, "requested_num_shards"))),
		jsonObjectField("history", slices.Concat(
			jsonFields(jsonFloat, 7, "avg_tcio", "avg_size_bytes", "avg_lifetime_sec", "avg_io_density"),
			jsonFields(jsonInt, 7, "num_runs"))),
	)
	decisionFields = slices.Concat(
		jsonFields(jsonString, 0, "job_id"),
		jsonFields(jsonBool, 0, "admit"),
		jsonFields(jsonInt, 0, "category", "model_version", "shard"),
	)
	jobsKey      = []byte("jobs")
	decisionsKey = []byte("decisions")
)

// jsonView holds the addresses of one struct's fields by kind, in the
// slots the schema names: what lets one reader and one writer serve
// every struct without reflection.
type jsonView struct {
	strs  [10]*string
	f64s  [11]*float64
	ints  [8]*int
	i64s  [1]*int64
	bools [1]*bool
}

func (v *jsonView) job(j *trace.Job) {
	m, r, h := &j.Meta, &j.Resources, &j.History
	v.strs = [10]*string{&j.ID, &j.Cluster, &j.User, &j.Pipeline, &j.Step,
		&m.BuildTargetName, &m.ExecutionName, &m.PipelineName, &m.StepName, &m.UserName}
	v.f64s = [11]*float64{&j.ArrivalSec, &j.LifetimeSec, &j.SizeBytes, &j.ReadBytes, &j.WriteBytes,
		&j.AvgReadSizeBytes, &j.CacheHitFrac, &h.AvgTCIO, &h.AvgSizeBytes, &h.AvgLifetime, &h.AvgIODensity}
	v.ints = [8]*int{&r.BucketSizingInitialNumStripes, &r.BucketSizingNumShards, &r.BucketSizingNumWorkerThreads,
		&r.BucketSizingNumWorkers, &r.InitialNumBuckets, &r.NumBuckets, &r.RequestedNumShards, &h.NumRuns}
	v.i64s[0] = &r.RecordsWritten
}

func (v *jsonView) decision(d *Decision) {
	v.strs[0], v.bools[0] = &d.JobID, &d.Admit
	v.ints[0], v.ints[1], v.ints[2] = &d.Category, &d.ModelVersion, &d.Shard
}

// Encoding.

// jsonPlain marks the ASCII bytes json.Marshal copies into a string as
// they are: everything printable but the quote, the backslash and the
// three it escapes for HTML.
var jsonPlain = func() (t [utf8.RuneSelf]bool) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted and escaped as json.Marshal does it.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonPlain[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default: // the other control bytes, and < > &
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends f as json.Marshal does it: the shortest digits
// that round-trip, exponent form below 1e-6 and from 1e21 with the
// exponent's leading zero dropped. NaN and the infinities have no JSON
// spelling and are refused.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("wire: json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendJSONObject appends the struct behind v, every field, in order.
func appendJSONObject(dst []byte, fields []jsonField, v *jsonView) ([]byte, error) {
	var err error
	open := byte('{')
	for i := range fields {
		f := &fields[i]
		dst = append(dst, open)
		open = ','
		dst = append(dst, f.quoted...)
		switch f.kind {
		case jsonString:
			dst = appendJSONString(dst, *v.strs[f.slot])
		case jsonFloat:
			dst, err = appendJSONFloat(dst, *v.f64s[f.slot])
		case jsonInt:
			dst = strconv.AppendInt(dst, int64(*v.ints[f.slot]), 10)
		case jsonInt64:
			dst = strconv.AppendInt(dst, *v.i64s[f.slot], 10)
		case jsonBool:
			dst = strconv.AppendBool(dst, *v.bools[f.slot])
		case jsonObject:
			dst, err = appendJSONObject(dst, f.sub, v)
		}
		if err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// AppendPlaceRequestJSON appends the JSON document of a PlaceRequest
// holding jobs to dst and returns the extended slice: byte for byte what
// json.Marshal writes for the struct. A non-finite float is an error,
// and dst comes back as it was.
func AppendPlaceRequestJSON(dst []byte, jobs []*trace.Job) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"jobs":`...)
	if jobs == nil {
		return append(dst, "null}"...), nil
	}
	var v jsonView
	open := byte('[')
	for _, j := range jobs {
		dst = append(dst, open)
		open = ','
		if j == nil {
			dst = append(dst, "null"...)
			continue
		}
		v.job(j)
		var err error
		if dst, err = appendJSONObject(dst, jobFields, &v); err != nil {
			return dst[:start], err
		}
	}
	if len(jobs) == 0 {
		dst = append(dst, '[')
	}
	return append(dst, "]}"...), nil
}

// AppendPlaceResponseJSON appends the JSON document of a PlaceResponse
// holding decisions to dst, as AppendPlaceRequestJSON does a request's;
// a decision holds nothing JSON cannot spell.
func AppendPlaceResponseJSON(dst []byte, decisions []Decision) []byte {
	dst = append(dst, `{"decisions":`...)
	if decisions == nil {
		return append(dst, "null}"...)
	}
	var v jsonView
	open := byte('[')
	for i := range decisions {
		dst = append(dst, open)
		open = ','
		v.decision(&decisions[i])
		dst, _ = appendJSONObject(dst, decisionFields, &v) // no floats, no error
	}
	if len(decisions) == 0 {
		dst = append(dst, '[')
	}
	return append(dst, "]}"...)
}

// Decoding.

// jsonMaxDepth is the container nesting encoding/json's scanner allows.
const jsonMaxDepth = 10000

// The most a JSONScratch keeps between requests: a slab a request grew
// past jsonKeepJobs jobs (DefaultConfig's MaxBatch; the batch was
// refused) is left to the garbage collector, as is a scratch whose
// string bookkeeping a hostile document blew up.
const (
	jsonKeepJobs  = 4096
	jsonKeepBytes = 1 << 20
)

// JSONScratch is the storage DecodePlaceRequestJSON decodes into, reused
// from one request to the next: the jobs themselves, the slice that
// points at them, and the bytes of every string on their way to the one
// string the jobs share. The zero value is ready; it is not safe for
// concurrent use.
type JSONScratch struct {
	jobs []trace.Job // the slab; jobs[:used] are handed out
	used int
	ptrs []*trace.Job // PlaceRequest.Jobs of the last decode
	strs []byte       // every string value, unescaped, back to back
	fix  []jsonStringFix
	tmp  []byte // one unescaped key or string
}

// jsonStringFix is one decoded string waiting for the shared string:
// dst receives strs[off:off+n]. Fixes apply in document order, so a
// duplicate key's last value wins.
type jsonStringFix struct {
	dst    *string
	off, n int
}

// reset readies the scratch for a decode.
func (s *JSONScratch) reset() {
	if len(s.jobs) > jsonKeepJobs || cap(s.fix) > 16*jsonKeepJobs || cap(s.strs) > jsonKeepBytes || cap(s.tmp) > jsonKeepBytes {
		*s = JSONScratch{}
	}
	clear(s.ptrs[:cap(s.ptrs)]) // a stale pointer would read as a job to merge into
	s.used, s.strs, s.fix = 0, s.strs[:0], s.fix[:0]
}

// newJob hands out the slab's next job, zeroed. A full slab is left to
// the jobs already cut from it and a larger one started, so no job moves.
func (s *JSONScratch) newJob() *trace.Job {
	if s.used == len(s.jobs) {
		s.jobs, s.used = make([]trace.Job, max(2*len(s.jobs), 8)), 0
	}
	j := &s.jobs[s.used]
	s.used++
	*j = trace.Job{}
	return j
}

// finish cuts every decoded string from one string.
func (s *JSONScratch) finish() {
	blob := string(s.strs)
	for _, f := range s.fix {
		*f.dst = blob[f.off : f.off+f.n]
	}
}

// jsonSlice is a slice field being decoded by the rules of
// encoding/json's array decoder, which a duplicate key makes visible: a
// second array decodes into the elements of the first, a shorter one
// truncates, and a longer one after that finds the truncated elements
// again, because growing the length never clears what the backing array
// held. Only null and the empty array start over.
type jsonSlice[T any] struct {
	s     []T // the field: nil before its key and after a null
	spare []T // zeroed backing for the next array while s is nil
}

func (a *jsonSlice[T]) null() {
	if a.s != nil {
		clear(a.s[:cap(a.s)])
		a.s, a.spare = nil, a.s[:0]
	}
}

// elem returns element i, which is the next one or an earlier array's.
func (a *jsonSlice[T]) elem(i int) *T {
	if a.s == nil {
		a.s, a.spare = a.spare, nil
	}
	switch {
	case i < len(a.s):
	case i < cap(a.s):
		a.s = a.s[:i+1]
	default:
		var zero T
		a.s = append(a.s, zero)
	}
	return &a.s[i]
}

// end closes an array of n elements.
func (a *jsonSlice[T]) end(n int) {
	if a.s == nil {
		a.s, a.spare = a.spare, nil
	}
	if n > 0 {
		a.s = a.s[:n]
		return
	}
	clear(a.s[:cap(a.s)])
	if a.s = a.s[:0]; a.s == nil {
		a.s = []T{}
	}
}

// backing is the array to offer the next decode.
func (a *jsonSlice[T]) backing() []T {
	if a.s != nil {
		return a.s[:0]
	}
	return a.spare
}

// jsonDec reads one document.
type jsonDec struct {
	b     []byte
	i     int
	depth int
	// A request's strings wait in sc for the one string they share
	// (finish); a response, with no sc, compares each against hint, the
	// ID of the job it answers, and only allocates one that differs.
	sc   *JSONScratch
	hint string
	tmp  []byte
}

func (d *jsonDec) errorf(format string, args ...any) error {
	return fmt.Errorf("wire: invalid JSON at offset %d: %s", d.i, fmt.Sprintf(format, args...))
}

// peek returns the byte at the cursor, or 0, which starts nothing, at
// the end of the input.
func (d *jsonDec) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

func (d *jsonDec) space() {
	for d.i < len(d.b) {
		if c := d.b[d.i]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return
		}
		d.i++
	}
}

// literal consumes one of true, false and null.
func (d *jsonDec) literal(word string) error {
	if len(d.b)-d.i < len(word) || string(d.b[d.i:d.i+len(word)]) != word {
		return d.errorf("expected %s", word)
	}
	d.i += len(word)
	return nil
}

// open enters the object or array whose bracket is at the cursor.
func (d *jsonDec) open() error {
	if d.depth++; d.depth > jsonMaxDepth {
		return d.errorf("exceeded max depth")
	}
	d.i++
	return nil
}

// member steps to the next member of an object: the unescaped key, good
// until the next string is read, with the cursor on the value; or false
// once the closing brace is consumed.
func (d *jsonDec) member(first bool) ([]byte, bool, error) {
	d.space()
	c := d.peek()
	if c == '}' {
		d.i++
		d.depth--
		return nil, false, nil
	}
	if !first {
		if c != ',' {
			return nil, false, d.errorf("expected ',' or '}' after an object member")
		}
		d.i++
		d.space()
	}
	if d.peek() != '"' {
		return nil, false, d.errorf("expected a string key")
	}
	key, err := d.str()
	if err != nil {
		return nil, false, err
	}
	if d.space(); d.peek() != ':' {
		return nil, false, d.errorf("expected ':' after an object key")
	}
	d.i++
	d.space()
	return key, true, nil
}

// element steps to the next element of an array, the cursor on its
// value, or returns false once the closing bracket is consumed. After a
// comma the bracket is no value, and the element's reader refuses it.
func (d *jsonDec) element(first bool) (bool, error) {
	d.space()
	c := d.peek()
	if c == ']' {
		d.i++
		d.depth--
		return false, nil
	}
	if !first {
		if c != ',' {
			return false, d.errorf("expected ',' or ']' after an array element")
		}
		d.i++
		d.space()
	}
	return true, nil
}

// hex4 reads the four hex digits at d.b[at:], or returns -1.
func (d *jsonDec) hex4(at int) rune {
	if at+4 > len(d.b) {
		return -1
	}
	var r rune
	for _, c := range d.b[at : at+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// str reads the string literal at the cursor and returns its contents
// unescaped, as encoding/json unquotes them: a surrogate escape with no
// partner and every byte of invalid UTF-8 become U+FFFD. The result
// aliases the input or d.tmp and is good until the next call.
func (d *jsonDec) str() ([]byte, error) {
	d.i++
	start := d.i
	for d.i < len(d.b) && jsonVerbatim[d.b[d.i]] {
		d.i++
	}
	if d.peek() == '"' {
		d.i++
		return d.b[start : d.i-1], nil
	}
	buf := append(d.tmp[:0], d.b[start:d.i]...)
	for d.i < len(d.b) {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			d.tmp = buf
			return buf, nil
		case c < ' ':
			return nil, d.errorf("control character in a string")
		case c == '\\':
			d.i++
			switch e := d.peek(); e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r := d.hex4(d.i + 1)
				if r < 0 {
					return nil, d.errorf("invalid \\u escape")
				}
				d.i += 4
				if utf16.IsSurrogate(r) {
					// A low half right behind completes the pair; any other
					// escape there is read on its own next time round.
					var lo rune = -1
					if d.i+2 < len(d.b) && d.b[d.i+1] == '\\' && d.b[d.i+2] == 'u' {
						lo = d.hex4(d.i + 3)
					}
					if r = utf16.DecodeRune(r, lo); r != unicode.ReplacementChar {
						d.i += 6
					}
				}
				buf = utf8.AppendRune(buf, r)
			default:
				return nil, d.errorf("invalid escape in a string")
			}
			d.i++
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			d.i++
		default:
			r, size := utf8.DecodeRune(d.b[d.i:])
			buf = utf8.AppendRune(buf, r)
			d.i += size
		}
	}
	return nil, d.errorf("unterminated string")
}

// jsonVerbatim marks the bytes of a string literal that stand for
// themselves: ASCII but the quote, the backslash and the control bytes.
var jsonVerbatim = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func (d *jsonDec) digits() bool {
	if !isDigit(d.peek()) {
		return false
	}
	for isDigit(d.peek()) {
		d.i++
	}
	return true
}

// number reads the number literal at the cursor by JSON's grammar and
// returns its text.
func (d *jsonDec) number() ([]byte, error) {
	start := d.i
	if d.peek() == '-' {
		d.i++
	}
	if d.peek() == '0' {
		d.i++
	} else if !d.digits() {
		return nil, d.errorf("invalid number")
	}
	if d.peek() == '.' {
		if d.i++; !d.digits() {
			return nil, d.errorf("invalid number: no digits after the point")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.i++
		if c := d.peek(); c == '+' || c == '-' {
			d.i++
		}
		if !d.digits() {
			return nil, d.errorf("invalid number: no digits in the exponent")
		}
	}
	return d.b[start:d.i], nil
}

// skip reads any value, checking it as encoding/json's scanner would
// and keeping nothing: the value of an unknown key.
func (d *jsonDec) skip() error {
	var err error
	switch c := d.peek(); {
	case c == '"':
		_, err = d.str()
	case c == '-' || isDigit(c):
		_, err = d.number()
	case c == 't':
		err = d.literal("true")
	case c == 'f':
		err = d.literal("false")
	case c == 'n':
		err = d.literal("null")
	case c == '{':
		if err = d.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			_, more, err := d.member(first)
			if err != nil || !more {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '[':
		if err = d.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			more, err := d.element(first)
			if err != nil || !more {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	default:
		err = d.errorf("expected a value")
	}
	return err
}

// matchField finds the field a key names as encoding/json does: the
// exact name, else the first that matches under Unicode case folding.
// next is where a document written in declaration order has its key.
func matchField(fields []jsonField, key []byte, next int) int {
	if next < len(fields) && string(key) == fields[next].name {
		return next
	}
	for i := range fields {
		if string(key) == fields[i].name {
			return i
		}
	}
	for i := range fields {
		if bytes.EqualFold(key, fields[i].fold) {
			return i
		}
	}
	return -1
}

// object decodes the object at the cursor into the struct behind v as
// encoding/json decodes into a struct: unknown keys skipped, a null
// leaving its field alone, a repeated key decoding again into the same
// field (so the last scalar wins and nested structs merge), any other
// mismatch of type refused.
func (d *jsonDec) object(fields []jsonField, v *jsonView) error {
	if err := d.open(); err != nil {
		return err
	}
	next := 0
	for first := true; ; first = false {
		key, more, err := d.member(first)
		if err != nil || !more {
			return err
		}
		at := matchField(fields, key, next)
		if at < 0 {
			if err := d.skip(); err != nil {
				return err
			}
			continue
		}
		next = at + 1
		f := &fields[at]
		switch c := d.peek(); {
		case c == 'n':
			err = d.literal("null")
		case f.kind == jsonString && c == '"':
			var s []byte
			if s, err = d.str(); err == nil {
				d.setString(v.strs[f.slot], s)
			}
		case f.kind == jsonObject && c == '{':
			err = d.object(f.sub, v)
		case f.kind == jsonBool && c == 't':
			*v.bools[f.slot] = true
			err = d.literal("true")
		case f.kind == jsonBool && c == 'f':
			*v.bools[f.slot] = false
			err = d.literal("false")
		case f.kind >= jsonFloat && (c == '-' || isDigit(c)):
			err = d.setNumber(f, v)
		default:
			err = d.errorf("field %q wants a %s", f.name, jsonKindNames[f.kind])
		}
		if err != nil {
			return err
		}
	}
}

// setNumber reads the number at the cursor into a float or integer
// field, by strconv as encoding/json does: 1.0 and 1e3 are no integers,
// and a value the type cannot hold is refused.
func (d *jsonDec) setNumber(f *jsonField, v *jsonView) error {
	num, err := d.number()
	if err != nil {
		return err
	}
	switch f.kind {
	case jsonFloat:
		*v.f64s[f.slot], err = strconv.ParseFloat(string(num), 64)
	case jsonInt64:
		*v.i64s[f.slot], err = strconv.ParseInt(string(num), 10, 64)
	default:
		var n int64
		if n, err = strconv.ParseInt(string(num), 10, 64); err == nil && int64(int(n)) != n {
			err = strconv.ErrRange
		}
		*v.ints[f.slot] = int(n)
	}
	if err != nil {
		return d.errorf("number %s does not fit field %q", num, f.name)
	}
	return nil
}

// setString stores one decoded string value.
func (d *jsonDec) setString(dst *string, s []byte) {
	switch {
	case d.sc != nil:
		d.sc.fix = append(d.sc.fix, jsonStringFix{dst, len(d.sc.strs), len(s)})
		d.sc.strs = append(d.sc.strs, s...)
	case string(s) == d.hint:
		*dst = d.hint
	default:
		*dst = string(s)
	}
}

// decodeDocument reads the one-key struct both place documents are:
// null, or an object whose key (matched as matchField matches) holds
// null or an array, decoded into a by jsonSlice's rules with elem
// reading each element in place; then nothing but white space to the
// end of the input.
func decodeDocument[T any](d *jsonDec, key []byte, a *jsonSlice[T], elem func(n int, e *T) error) error {
	d.space()
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
	case '{':
		if err := d.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			k, more, err := d.member(first)
			if err != nil {
				return err
			}
			if !more {
				break
			}
			switch c := d.peek(); {
			case !bytes.EqualFold(k, key):
				err = d.skip()
			case c == 'n':
				a.null()
				err = d.literal("null")
			case c == '[':
				err = decodeArray(d, a, elem)
			default:
				err = d.errorf("field %q wants an array", key)
			}
			if err != nil {
				return err
			}
		}
	default:
		return d.errorf("expected an object")
	}
	if d.space(); d.i < len(d.b) {
		return d.errorf("data after the document")
	}
	return nil
}

func decodeArray[T any](d *jsonDec, a *jsonSlice[T], elem func(n int, e *T) error) error {
	if err := d.open(); err != nil {
		return err
	}
	n := 0
	for ; ; n++ {
		more, err := d.element(n == 0)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if err := elem(n, a.elem(n)); err != nil {
			return err
		}
	}
	a.end(n)
	return nil
}

// DecodePlaceRequestJSON parses a JSON place request into req, with the
// jobs in sc's storage: they are good until sc decodes again, and their
// strings, all cut from one string allocated here, for as long as
// anything holds one. It accepts and refuses what json.Unmarshal into a
// zero PlaceRequest does and decodes to the same value; like it, it does
// not validate (see PlaceRequest.Validate). On error req is untouched.
func DecodePlaceRequestJSON(data []byte, req *PlaceRequest, sc *JSONScratch) error {
	sc.reset()
	d := jsonDec{b: data, sc: sc, tmp: sc.tmp}
	jobs := jsonSlice[*trace.Job]{spare: sc.ptrs[:0]}
	var v jsonView
	err := decodeDocument(&d, jobsKey, &jobs, func(n int, j **trace.Job) error {
		switch d.peek() {
		case 'n':
			*j = nil
			return d.literal("null")
		case '{':
			if *j == nil {
				*j = sc.newJob()
			}
			v.job(*j)
			return d.object(jobFields, &v)
		}
		return d.errorf("job %d is not an object", n)
	})
	sc.tmp, sc.ptrs = d.tmp, jobs.backing()
	if err != nil {
		return err
	}
	sc.finish()
	req.Jobs = jobs.s
	return nil
}

// DecodePlaceResponseJSON parses a JSON place response into resp, as
// json.Unmarshal into a zero PlaceResponse would, reusing the array
// behind resp.Decisions. jobs are the request's, in order: a decision
// whose job_id is its job's ID (every decision of a well-behaved daemon)
// shares that string, any other allocates its own.
func DecodePlaceResponseJSON(data []byte, resp *PlaceResponse, jobs []*trace.Job) error {
	d := jsonDec{b: data}
	decs := jsonSlice[Decision]{spare: resp.Decisions[:0]}
	clear(decs.spare[:cap(decs.spare)])
	var v jsonView
	err := decodeDocument(&d, decisionsKey, &decs, func(n int, dec *Decision) error {
		switch d.peek() {
		case 'n': // a struct element: null leaves it as it is
			return d.literal("null")
		case '{':
			if d.hint = ""; n < len(jobs) && jobs[n] != nil {
				d.hint = jobs[n].ID
			}
			v.decision(dec)
			return d.object(decisionFields, &v)
		}
		return d.errorf("decision %d is not an object", n)
	})
	if err != nil {
		return err
	}
	resp.Decisions = decs.s
	return nil
}
