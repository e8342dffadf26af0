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
// generator as it was before jobs moved into blocks and IDs into
// strings of their own. The digests were written by that older code and are
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
// blocks and IDs in one string per block, so what is left per job is a
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

// TestGenerateAllocsPerTemplate: the templates live in one array and
// their strings come from one strings.Builder, so a generator four
// times as large (16 users against 4) costs more allocations only for
// its job blocks: each block of 256 jobs is staged, copied into arrival
// order and given its own ID string.
func TestGenerateAllocsPerTemplate(t *testing.T) {
	residual := func(users int) (float64, int) {
		cfg := DefaultGeneratorConfig("C0", 5)
		cfg.DurationSec, cfg.NumUsers = 2*24*3600, users
		var jobs, templates int
		allocs := testing.AllocsPerRun(2, func() {
			g := NewGenerator(cfg)
			jobs, templates = len(g.Generate().Jobs), len(g.templates)
		})
		blocks := (jobs + jobBlock - 1) / jobBlock
		t.Logf("%d users: %d templates, %d jobs in %d blocks, %.0f allocations", users, templates, jobs, blocks, allocs)
		return allocs - 3*float64(blocks), templates
	}
	small, smallTemplates := residual(4)
	large, largeTemplates := residual(16)
	if largeTemplates < 3*smallTemplates {
		t.Fatalf("%d templates at 16 users and %d at 4: the pin needs about four times as many", largeTemplates, smallTemplates)
	}
	// The template array, the strings.Builder, the staged-block list and
	// the arrival buffer may each grow a time or two more.
	if large-small > 8 {
		t.Errorf("beside the job blocks, %.0f allocations for %d templates and %.0f for %d: generation grows with the template count",
			large, largeTemplates, small, smallTemplates)
	}
}

// TestJobBlockLayout: a block is whole pages, so it wastes nothing to
// size-class rounding (a Job that grows fails here), a generated
// trace's jobs sit in arrival order within their blocks, and each
// block's IDs lie back to back in one string of the block's own, so a
// kept arrival range pins only its blocks' IDs.
func TestJobBlockLayout(t *testing.T) {
	size := unsafe.Sizeof(Job{})
	if b := jobBlock * size; b%8192 != 0 || b < 32<<10 {
		t.Errorf("a block of %d %d-byte jobs is %d bytes, want a multiple of 8192 and at least 32 KiB", jobBlock, size, b)
	}
	tr := genTrace(t, 3)
	if len(tr.Jobs) < 2*jobBlock {
		t.Fatalf("%d jobs, want at least two blocks", len(tr.Jobs))
	}
	for i := 1; i < len(tr.Jobs); i++ {
		step := uintptr(unsafe.Pointer(tr.Jobs[i])) - uintptr(unsafe.Pointer(tr.Jobs[i-1]))
		if i%jobBlock != 0 && step != size {
			t.Fatalf("job %d is %d bytes past job %d, want %d (one arrival-ordered block)", i, step, i-1, size)
		}
		// A full block's IDs are 2,560 bytes, which no size class fits
		// exactly, so the next block's string cannot start where this one
		// ends.
		prev, id := tr.Jobs[i-1].ID, tr.Jobs[i].ID
		adjacent := unsafe.Add(unsafe.Pointer(unsafe.StringData(prev)), len(prev)) == unsafe.Pointer(unsafe.StringData(id))
		if i%jobBlock != 0 && !adjacent {
			t.Fatalf("job %d's ID %q does not follow job %d's %q in one string", i, id, i-1, prev)
		}
		if i%jobBlock == 0 && adjacent {
			t.Fatalf("job %d's ID %q follows job %d's %q across a block boundary: the blocks share one string", i, id, i-1, prev)
		}
	}
}
