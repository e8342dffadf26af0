package cost

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func job(size, life, readBytes, writeBytes, readSize, cacheHit float64) *trace.Job {
	return &trace.Job{
		ID: "t", LifetimeSec: life, SizeBytes: size,
		ReadBytes: readBytes, WriteBytes: writeBytes,
		AvgReadSizeBytes: readSize, CacheHitFrac: cacheHit,
	}
}

func TestTCIOBasic(t *testing.T) {
	m := Default()
	// 150 read ops/sec at 0% cache hit should be exactly TCIO 1.0.
	readSize := 64.0 * 1024
	life := 100.0
	j := job(1e9, life, 150*life*readSize, 0, readSize, 0)
	if got := m.TCIO(j); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("TCIO = %g, want 1.0", got)
	}
}

func TestTCIOCacheAbsorption(t *testing.T) {
	m := Default()
	base := job(1e9, 100, 1e9, 0, 64*1024, 0)
	cached := job(1e9, 100, 1e9, 0, 64*1024, 0.9)
	tb, tc := m.TCIO(base), m.TCIO(cached)
	if math.Abs(tc-tb*0.1) > 1e-12 {
		t.Errorf("90%% cache hit TCIO = %g, want %g", tc, tb*0.1)
	}
}

func TestTCIOWriteCoalescing(t *testing.T) {
	m := Default()
	// 1 GiB written in small ops is coalesced to 1024 x 1MiB chunks.
	j := job(1e9, 100, 0, 1<<30, 64*1024, 0)
	want := 1024.0 / 100 / m.Rates.HDDOpsPerSec
	if got := m.TCIO(j); math.Abs(got-want) > 1e-12 {
		t.Errorf("TCIO = %g, want %g", got, want)
	}
}

func TestTCIOZeroLifetime(t *testing.T) {
	m := Default()
	j := job(1e9, 0, 1e9, 1e9, 64*1024, 0)
	if got := m.TCIO(j); got != 0 {
		t.Errorf("TCIO with zero lifetime = %g, want 0", got)
	}
}

func TestSavingsSignRegimes(t *testing.T) {
	m := Default()
	// Hot small random-read job: SSD should win.
	hot := job(1<<30, 300, 200*(1<<30), 1.2*(1<<30), 32*1024, 0.1)
	if s := m.Savings(hot); s <= 0 {
		t.Errorf("hot job savings = %g, want > 0", s)
	}
	// Cold, huge, write-heavy job: SSD should lose (wear dominates).
	cold := job(200*(1<<30), 12*3600, 0.05*200*(1<<30), 1.1*200*(1<<30), 8<<20, 0.6)
	if s := m.Savings(cold); s >= 0 {
		t.Errorf("cold job savings = %g, want < 0", s)
	}
}

func TestSavingsConsistency(t *testing.T) {
	m := Default()
	j := job(1e10, 1800, 5e10, 2e10, 128*1024, 0.3)
	if got, want := m.Savings(j), m.TCOHDD(j)-m.TCOSSD(j); math.Abs(got-want) > 1e-18 {
		t.Errorf("Savings inconsistent: %g vs %g", got, want)
	}
}

func TestPartialSavingsBoundary(t *testing.T) {
	m := Default()
	j := job(1e10, 1800, 5e10, 2e10, 128*1024, 0.3)
	full := m.PartialSavings(j, PartialOutcome{FracOnSSD: 1, ResidencyFrac: 1})
	if want := m.Savings(j); math.Abs(full-want) > math.Abs(want)*1e-9 {
		t.Errorf("full partial savings = %g, want %g", full, want)
	}
	if got := m.PartialSavings(j, PartialOutcome{FracOnSSD: 0, ResidencyFrac: 1}); got != 0 {
		t.Errorf("zero fraction savings = %g, want 0", got)
	}
	// Early eviction still pays full wear: savings should be less than
	// residency-scaled full savings when savings are positive.
	half := m.PartialSavings(j, PartialOutcome{FracOnSSD: 1, ResidencyFrac: 0.5})
	if full > 0 && half >= full {
		t.Errorf("half residency %g >= full %g", half, full)
	}
}

func TestPartialSavingsClamping(t *testing.T) {
	m := Default()
	j := job(1e10, 1800, 5e10, 2e10, 128*1024, 0.3)
	a := m.PartialSavings(j, PartialOutcome{FracOnSSD: 2, ResidencyFrac: 5})
	b := m.PartialSavings(j, PartialOutcome{FracOnSSD: 1, ResidencyFrac: 1})
	if a != b {
		t.Errorf("clamping failed: %g vs %g", a, b)
	}
	if got := m.PartialSavings(j, PartialOutcome{FracOnSSD: math.NaN(), ResidencyFrac: 1}); got != 0 {
		t.Errorf("NaN fraction savings = %g, want 0", got)
	}
}

func TestPartialTCIOSaved(t *testing.T) {
	m := Default()
	j := job(1e10, 1800, 5e10, 2e10, 128*1024, 0.3)
	full := m.TCIO(j)
	got := m.PartialTCIOSaved(j, PartialOutcome{FracOnSSD: 0.5, ResidencyFrac: 0.5})
	if want := full * 0.25; math.Abs(got-want) > 1e-15 {
		t.Errorf("PartialTCIOSaved = %g, want %g", got, want)
	}
}

func TestTotals(t *testing.T) {
	m := Default()
	jobs := []*trace.Job{
		job(1e9, 100, 1e9, 1e9, 64*1024, 0),
		job(2e9, 200, 2e9, 2e9, 64*1024, 0),
	}
	if got, want := m.TotalTCIO(jobs), m.TCIO(jobs[0])+m.TCIO(jobs[1]); math.Abs(got-want) > 1e-15 {
		t.Errorf("TotalTCIO = %g, want %g", got, want)
	}
	if got, want := m.TotalTCOHDD(jobs), m.TCOHDD(jobs[0])+m.TCOHDD(jobs[1]); math.Abs(got-want) > 1e-20 {
		t.Errorf("TotalTCOHDD = %g, want %g", got, want)
	}
}

func TestSavingsMonotoneInIODensity(t *testing.T) {
	// For fixed size/lifetime/writes, more (uncached, small) reads make
	// SSD strictly more attractive.
	m := Default()
	prev := math.Inf(-1)
	for _, reads := range []float64{0, 1e9, 1e10, 1e11, 1e12} {
		j := job(1e10, 3600, reads, 1.2e10, 64*1024, 0.2)
		s := m.Savings(j)
		if s <= prev {
			t.Fatalf("savings not increasing in reads: %g after %g", s, prev)
		}
		prev = s
	}
}

func TestTCIONonNegativeProperty(t *testing.T) {
	m := Default()
	rng := rand.New(rand.NewSource(99))
	f := func() bool {
		j := job(
			math.Abs(rng.NormFloat64())*1e12+1,
			math.Abs(rng.NormFloat64())*1e5+1,
			math.Abs(rng.NormFloat64())*1e12,
			math.Abs(rng.NormFloat64())*1e12,
			math.Abs(rng.NormFloat64())*1e7+4096,
			rng.Float64(),
		)
		return m.TCIO(j) >= 0 && m.TCOHDD(j) >= 0 && m.TCOSSD(j) >= 0
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(func() bool { return f() }, cfg); err != nil {
		t.Error(err)
	}
}

func TestDefaultRatesSane(t *testing.T) {
	r := DefaultRates()
	if r.SSDBytePerSec <= r.HDDBytePerSec {
		t.Error("SSD per-byte cost should exceed HDD per-byte cost")
	}
	if r.SSDWearPerByteWritten <= 0 {
		t.Error("wear rate must be positive")
	}
	if r.HDDOpsPerSec <= 0 || r.WriteCoalesceBytes <= 0 {
		t.Error("HDD op rate and coalesce size must be positive")
	}
}

// TestNewModelKeepsCustomRates: DefaultRates hands out a copy, and a
// model built from an edited copy carries the edit.
func TestNewModelKeepsCustomRates(t *testing.T) {
	rates := DefaultRates()
	rates.SSDWearPerByteWritten *= 2
	cm := NewModel(rates)
	if cm.Rates.SSDWearPerByteWritten != rates.SSDWearPerByteWritten {
		t.Error("custom rates not applied")
	}
}

func TestGeneratedWorkloadCostMix(t *testing.T) {
	// On a generated cluster, a meaningful share of jobs should have
	// negative SSD savings (category 0 exists) and a meaningful share
	// positive (there is something to win) — the premise of Fig. 4.
	cfg := trace.DefaultGeneratorConfig("C0", 123)
	cfg.DurationSec = 2 * 24 * 3600
	tr := trace.NewGenerator(cfg).Generate()
	m := Default()
	var neg, pos int
	for _, j := range tr.Jobs {
		if m.Savings(j) < 0 {
			neg++
		} else {
			pos++
		}
	}
	total := neg + pos
	if total == 0 {
		t.Fatal("no jobs")
	}
	negFrac := float64(neg) / float64(total)
	if negFrac < 0.05 || negFrac > 0.8 {
		t.Errorf("negative-savings fraction = %.2f, want within [0.05, 0.8] (got %d/%d)",
			negFrac, neg, total)
	}
}
