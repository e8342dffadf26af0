package trace

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strconv"
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

// TestGenerateAllocs is the generator's allocation budget: jobs are
// written once into blocks and IDs into one string per block, so what is
// left per job is a share of a block. The fixture trace measures 401
// allocations for 49,002 jobs, 0.0082 per job, generator included (610,
// 0.0124, while staged blocks were copied into arrival-ordered ones).
func TestGenerateAllocs(t *testing.T) {
	cfg := fixtureConfig()
	var jobs int
	allocs := testing.AllocsPerRun(2, func() {
		jobs = len(NewGenerator(cfg).Generate().Jobs)
	})
	perJob := allocs / float64(jobs)
	t.Logf("%.0f allocations for %d jobs: %.4f per job", allocs, jobs, perJob)
	if perJob > 0.0095 {
		t.Errorf("%.4f allocations per generated job, want at most 0.0095", perJob)
	}
}

// TestGenerateAllocsPerTemplate: the templates live in one array and
// their strings come from one strings.Builder, so a generator four
// times as large (16 users against 4) costs more allocations only for
// its job blocks. Each block of 256 jobs costs two: the block, which is
// staged in template order and permuted in place into arrival order, and
// its ID string.
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
		return allocs - 2*float64(blocks), templates
	}
	small, smallTemplates := residual(4)
	large, largeTemplates := residual(16)
	if largeTemplates < 3*smallTemplates {
		t.Fatalf("%d templates at 16 users and %d at 4: the pin needs about four times as many", largeTemplates, smallTemplates)
	}
	// The template array and the strings.Builder may each grow a time or
	// two more; the block list and the arrival buffer are sized once.
	if large-small > 8 {
		t.Errorf("beside the job blocks, %.0f allocations for %d templates and %.0f for %d: generation grows with the template count",
			large, largeTemplates, small, smallTemplates)
	}
}

// TestPermuteMatchesCopy holds the in-place permutation to the copy it
// replaced: position k ends up holding what position order[k].seq held,
// and order's seqs are left as they were.
func TestPermuteMatchesCopy(t *testing.T) {
	each := func(n int, from func(k int) int) []int {
		p := make([]int, n)
		for k := range p {
			p[k] = from(k)
		}
		return p
	}
	perms := []struct {
		name string
		of   func(n int) []int
	}{
		{"identity", func(n int) []int { return each(n, func(k int) int { return k }) }},
		{"one-cycle", func(n int) []int { return each(n, func(k int) int { return (k + 1) % n }) }},
		{"reverse", func(n int) []int { return each(n, func(k int) int { return n - 1 - k }) }},
		// Even positions stay; the odd ones rotate as one cycle.
		{"fixed-points", func(n int) []int {
			p := each(n, func(k int) int { return k })
			for k := 1; k+2 < n; k += 2 {
				p[k], p[k+2] = p[k+2], p[k]
			}
			return p
		}},
		{"random-1", func(n int) []int { return rand.New(rand.NewSource(1)).Perm(n) }},
		{"random-2", func(n int) []int { return rand.New(rand.NewSource(2)).Perm(n) }},
		{"random-3", func(n int) []int { return rand.New(rand.NewSource(3)).Perm(n) }},
	}
	for _, n := range []int{0, 1, 255, 256, 257, 1000} {
		for _, perm := range perms {
			blocks := make([][]Job, (n+jobBlock-1)/jobBlock)
			for b := range blocks {
				blocks[b] = make([]Job, jobBlock)
			}
			staged := make([]Job, n)
			order := make([]arrival, n)
			for k, from := range perm.of(n) {
				staged[k] = Job{ID: strconv.Itoa(k), ArrivalSec: float64(k)}
				blocks[k/jobBlock][k%jobBlock] = staged[k]
				order[k] = arrival{float64(from), int32(from)}
			}
			want := make([]Job, n)
			for k, a := range order {
				want[k] = staged[a.seq]
			}
			permute(blocks, order)
			for k := range n {
				if got := blocks[k/jobBlock][k%jobBlock]; got != want[k] {
					t.Fatalf("%s, %d jobs: position %d holds job %q, want %q", perm.name, n, k, got.ID, want[k].ID)
				}
				if a := order[k]; a.at != float64(a.seq) || want[k] != staged[a.seq] {
					t.Fatalf("%s, %d jobs: order[%d] = %+v after permute", perm.name, n, k, a)
				}
			}
		}
	}
}

// TestJobBlockLayout: a block is whole pages, so it wastes nothing to
// size-class rounding (a Job that grows fails here), a generated
// trace's jobs sit in arrival order within their blocks, and each
// block's IDs lie back to back in one string of the block's own, so a
// kept arrival range pins only its blocks' IDs. Every block but the last
// holds 256 jobs, and the partial last one is cut to its length, so a
// kept tail job pins only the jobs there are.
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
	cfg := DefaultGeneratorConfig("C0", 3)
	cfg.DurationSec = 3 * 24 * 3600 // genTrace's
	blocks, order := NewGenerator(cfg).arrange()
	tail := len(order) % jobBlock
	if len(order) != len(tr.Jobs) || tail == 0 {
		t.Fatalf("%d jobs arranged for %d generated: the pin needs the same trace, with a partial last block", len(order), len(tr.Jobs))
	}
	for b, blk := range blocks {
		want := jobBlock
		if b == len(blocks)-1 {
			want = tail
		}
		if len(blk) != want || cap(blk) != want {
			t.Errorf("block %d of %d: length %d, capacity %d, want both %d", b, len(blocks), len(blk), cap(blk), want)
		}
	}
}
