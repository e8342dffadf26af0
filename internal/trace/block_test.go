package trace

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/golden"
)

// fixtureConfig is the generator config of the benchmark fixture: two
// weeks of a 28-user C0 cluster, seed 1.
func fixtureConfig() GeneratorConfig {
	cfg := DefaultGeneratorConfig("C0", 1)
	cfg.DurationSec, cfg.NumUsers = 14*24*3600, 28
	return cfg
}

// generateDigests renders one line per pinned config: its name, job
// count and the SHA-256 of its WriteJSONL bytes.
func generateDigests(t *testing.T) []byte {
	t.Helper()
	specs, err := FleetSpecs(FleetConfig{NumClusters: 4, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	small := DefaultGeneratorConfig("s12", 3)
	small.DurationSec, small.NumUsers = 2*24*3600, 3
	configs := []struct {
		name string
		cfg  GeneratorConfig
	}{
		{"fixture", fixtureConfig()},
		{"fleet-7-cluster-3", specs[3].Gen}, // LoadScale and NoiseScale are not 1
		{"small", small},
	}
	var out bytes.Buffer
	for _, c := range configs {
		tr := NewGenerator(c.cfg).Generate()
		h := sha256.New()
		if err := WriteJSONL(h, tr); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s %d %x\n", c.name, len(tr.Jobs), h.Sum(nil))
	}
	return out.Bytes()
}

// TestGenerateMatchesParent pins generated traces byte for byte to the
// generator as it was before jobs moved into blocks and IDs into one
// string per trace. The digests were written by that older code and are
// compared, never rewritten: a mismatch is a change to every trace the
// repository generates.
func TestGenerateMatchesParent(t *testing.T) {
	if testing.Short() {
		t.Skip("encodes 60k jobs: 0.4 s, 6 s under -race")
	}
	if err := golden.Compare("testdata/generate.golden", generateDigests(t)); err != nil {
		t.Error(err)
	}
}

func TestJobIDMatchesSprintf(t *testing.T) {
	for _, cluster := range []string{"", "C0", "C12"} {
		for _, seq := range []int{0, 7, 999999, 1000000, 123456789} {
			got := string(appendJobID(nil, cluster, seq))
			if want := fmt.Sprintf("%s-j%06d", cluster, seq); got != want {
				t.Errorf("appendJobID(%q, %d) = %q, want %q", cluster, seq, got, want)
			}
		}
	}
}

// TestGenerateAllocs is the generator's allocation budget: jobs come in
// blocks and IDs in one string per trace, so what is left per job is a
// share of a block.
func TestGenerateAllocs(t *testing.T) {
	cfg := fixtureConfig()
	var jobs int
	allocs := testing.AllocsPerRun(2, func() {
		jobs = len(NewGenerator(cfg).Generate().Jobs)
	})
	perJob := allocs / float64(jobs)
	t.Logf("%.0f allocations for %d jobs: %.4f per job", allocs, jobs, perJob)
	if perJob > 0.05 {
		t.Errorf("%.4f allocations per generated job, want at most 0.05", perJob)
	}
}

// TestJobBlockLayout: a block is whole pages, so it wastes nothing to
// size-class rounding (a Job that grows fails here), and a generated
// trace's jobs sit in arrival order within their blocks.
func TestJobBlockLayout(t *testing.T) {
	size := unsafe.Sizeof(Job{})
	if b := jobBlock * size; b%8192 != 0 || b < 32<<10 {
		t.Errorf("a block of %d %d-byte jobs is %d bytes, want a multiple of 8192 and at least 32 KiB", jobBlock, size, b)
	}
	tr := genTrace(t, 3)
	for i := 1; i < len(tr.Jobs); i++ {
		step := uintptr(unsafe.Pointer(tr.Jobs[i])) - uintptr(unsafe.Pointer(tr.Jobs[i-1]))
		if i%jobBlock != 0 && step != size {
			t.Fatalf("job %d is %d bytes past job %d, want %d (one arrival-ordered block)", i, step, i-1, size)
		}
	}
}
