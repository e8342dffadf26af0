package trace_test

import (
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/trace"
)

// TestTemplateHashIsFNVOfTemplateKey pins the definition over pipeline
// and step strings of every awkward kind — empty, holding the '/' the
// key joins them with, not UTF-8: trace.TemplateHash is FNV-1a of the
// TemplateKey, and serve.TemplateHash, which shards and routes a job,
// is the same value.
func TestTemplateHashIsFNVOfTemplateKey(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	pieces := []string{"", "/", "a/b", "a", "/b", "\xff\xfe", "\x00", "pipe\xc3", "\xe2\x82", "日本/語", strings.Repeat("x/", 300)}
	random := func() string {
		b := make([]byte, rng.Intn(24))
		for i := range b {
			b[i] = byte(rng.Intn(256))
			if rng.Intn(6) == 0 {
				b[i] = '/'
			}
		}
		return string(b)
	}
	check := func(pipeline, step string) {
		t.Helper()
		j := &trace.Job{ID: "j", User: "user/" + step, Pipeline: pipeline, Step: step}
		h := fnv.New32a()
		h.Write([]byte(j.TemplateKey()))
		if want := h.Sum32(); trace.TemplateHash(pipeline, step) != want || serve.TemplateHash(j) != want {
			t.Errorf("pipeline %q step %q: trace.TemplateHash %#x, serve.TemplateHash %#x, FNV-1a of the key %#x",
				pipeline, step, trace.TemplateHash(pipeline, step), serve.TemplateHash(j), want)
		}
	}
	for _, p := range pieces {
		for _, s := range pieces {
			check(p, s)
		}
	}
	for i := 0; i < 2000; i++ {
		check(random(), random())
	}
	// The key is ambiguous where the strings hold a '/', and the hash
	// inherits that.
	if trace.TemplateHash("a/b", "c") != trace.TemplateHash("a", "b/c") ||
		serve.TemplateHash(&trace.Job{Pipeline: "a/b", Step: "c"}) != serve.TemplateHash(&trace.Job{Pipeline: "a", Step: "b/c"}) {
		t.Error("hashes of one TemplateKey differ")
	}
}
