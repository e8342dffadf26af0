package dfs

import (
	"math"
	"testing"

	"repro/internal/core"
)

func testCluster(t *testing.T, capacity float64, d Decider) *Cluster {
	t.Helper()
	c, err := NewCluster(capacity, d)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(1e9, StaticDecider(true)); err != nil {
		t.Fatalf("valid cluster rejected: %v", err)
	}
	if _, err := NewCluster(-1, StaticDecider(true)); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := NewCluster(1e9, nil); err == nil {
		t.Error("nil decider accepted")
	}
}

func TestCreateAllocatesAndDeleteFrees(t *testing.T) {
	c := testCluster(t, 1000, StaticDecider(true))
	h, err := c.Create("f1", 600, Hint{JobID: "j1", SizeBytes: 600}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.SSDUsed(); got != 600 {
		t.Errorf("SSDUsed = %g, want 600", got)
	}
	frac, err := h.FracOnSSD()
	if err != nil || frac != 1 {
		t.Errorf("frac = %g err=%v, want 1", frac, err)
	}
	if err := h.Delete(); err != nil {
		t.Fatal(err)
	}
	if got := c.SSDUsed(); got != 0 {
		t.Errorf("SSDUsed after delete = %g, want 0", got)
	}
	m := c.Metrics()
	if m.FilesCreated != 1 || m.FilesDeleted != 1 {
		t.Errorf("metrics %+v", m)
	}
}

func TestCreateSpillsWhenFull(t *testing.T) {
	c := testCluster(t, 1000, StaticDecider(true))
	if _, err := c.Create("f1", 800, Hint{SizeBytes: 800}, 0); err != nil {
		t.Fatal(err)
	}
	h2, err := c.Create("f2", 800, Hint{SizeBytes: 800}, 1)
	if err != nil {
		t.Fatal(err)
	}
	frac, _ := h2.FracOnSSD()
	if math.Abs(frac-0.25) > 1e-12 { // 200 of 800 fit
		t.Errorf("spill frac = %g, want 0.25", frac)
	}
	if c.Metrics().SpilloverEvents != 1 {
		t.Errorf("spillover events = %d, want 1", c.Metrics().SpilloverEvents)
	}
	if used := c.SSDUsed(); used != 1000 {
		t.Errorf("SSDUsed = %g, want 1000 (at capacity)", used)
	}
}

func TestCreateErrors(t *testing.T) {
	c := testCluster(t, 1000, StaticDecider(true))
	if _, err := c.Create("f", 0, Hint{}, 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := c.Create("dup", 10, Hint{SizeBytes: 10}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("dup", 10, Hint{SizeBytes: 10}, 0); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestIOAccountingByDevice(t *testing.T) {
	c := testCluster(t, 1000, StaticDecider(true))
	h, err := c.Create("f", 1000, Hint{SizeBytes: 1000}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write(0, 1000, 100); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.BytesWrittenSSD != 1000 || m.BytesWrittenHDD != 0 {
		t.Errorf("writes ssd=%g hdd=%g, want 1000/0", m.BytesWrittenSSD, m.BytesWrittenHDD)
	}
	if m.SSDOps != 10 {
		t.Errorf("SSDOps = %g, want 10", m.SSDOps)
	}
	// All-HDD file: reads hit the DRAM cache partially.
	c2 := testCluster(t, 1000, StaticDecider(false))
	h2, _ := c2.Create("g", 1000, Hint{SizeBytes: 1000}, 0)
	if _, err := h2.Read(0, 1000, 100, 0.4); err != nil {
		t.Fatal(err)
	}
	m2 := c2.Metrics()
	if math.Abs(m2.BytesReadHDD-600) > 1e-9 {
		t.Errorf("HDD reads = %g, want 600 (40%% cached)", m2.BytesReadHDD)
	}
	if m2.BytesReadSSD != 0 {
		t.Errorf("SSD reads = %g, want 0", m2.BytesReadSSD)
	}
}

func TestIOSplitProportionalToPlacement(t *testing.T) {
	c := testCluster(t, 500, StaticDecider(true))
	h, err := c.Create("f", 1000, Hint{SizeBytes: 1000}, 0) // 50% fits
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write(0, 800, 100); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if math.Abs(m.BytesWrittenSSD-400) > 1e-9 || math.Abs(m.BytesWrittenHDD-400) > 1e-9 {
		t.Errorf("writes ssd=%g hdd=%g, want 400/400", m.BytesWrittenSSD, m.BytesWrittenHDD)
	}
}

func TestIOErrors(t *testing.T) {
	c := testCluster(t, 1000, StaticDecider(true))
	h, _ := c.Create("f", 100, Hint{SizeBytes: 100}, 0)
	if _, err := h.Write(0, -1, 100); err == nil {
		t.Error("negative bytes accepted")
	}
	if _, err := h.Write(0, 100, 0); err == nil {
		t.Error("zero op size accepted")
	}
	if err := h.Delete(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write(0, 100, 100); err == nil {
		t.Error("io on deleted file accepted")
	}
	if err := h.Delete(); err == nil {
		t.Error("double delete accepted")
	}
}

func TestLatencySSDFasterThanHDD(t *testing.T) {
	// Same workload on SSD vs HDD: SSD must finish much sooner for
	// small random reads (the app-runtime effect of Fig. 14).
	cs := testCluster(t, 1e12, StaticDecider(true))
	ch := testCluster(t, 1e12, StaticDecider(false))
	hs, _ := cs.Create("f", 1e9, Hint{SizeBytes: 1e9}, 0)
	hh, _ := ch.Create("f", 1e9, Hint{SizeBytes: 1e9}, 0)
	doneSSD, err := hs.Read(0, 1e9, 64*1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	doneHDD, err := hh.Read(0, 1e9, 64*1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	if doneSSD*5 > doneHDD {
		t.Errorf("SSD read %.2fs vs HDD %.2fs: expected >5x speedup", doneSSD, doneHDD)
	}
}

func TestServerQueueing(t *testing.T) {
	c := testCluster(t, 1e12, StaticDecider(true))
	c.ssd = c.ssd[:1]
	h, _ := c.Create("f", 1e9, Hint{SizeBytes: 1e9}, 0)
	d1, _ := h.Read(0, 1e9, 1<<20, 0)
	d2, _ := h.Read(0, 1e9, 1<<20, 0)
	if d2 <= d1 {
		t.Errorf("second request on a busy single server finished at %g <= first %g", d2, d1)
	}
}

func TestThresholdDecider(t *testing.T) {
	d := ThresholdDecider(5)
	if d.Decide(Hint{Category: 4}, 0) {
		t.Error("category 4 admitted at threshold 5")
	}
	if !d.Decide(Hint{Category: 5}, 0) {
		t.Error("category 5 rejected at threshold 5")
	}
}

func TestFitDecider(t *testing.T) {
	fd := &FitDecider{}
	c := testCluster(t, 1000, fd)
	fd.Bind(c)
	h, err := c.Create("a", 700, Hint{SizeBytes: 700}, 0)
	if err != nil {
		t.Fatal(err)
	}
	frac, _ := h.FracOnSSD()
	if frac != 1 {
		t.Errorf("first file frac = %g", frac)
	}
	// Second file does not fit: FitDecider sends it to HDD entirely
	// (no partial spill, matching the FirstFit baseline semantics).
	h2, err := c.Create("b", 700, Hint{SizeBytes: 700}, 0)
	if err != nil {
		t.Fatal(err)
	}
	frac2, _ := h2.FracOnSSD()
	if frac2 != 0 {
		t.Errorf("non-fitting file frac = %g, want 0", frac2)
	}
	// Unbound decider refuses SSD.
	unbound := &FitDecider{}
	if unbound.Decide(Hint{SizeBytes: 1}, 0) {
		t.Error("unbound FitDecider admitted")
	}
}

func TestAdaptiveDeciderControl(t *testing.T) {
	acfg := core.DefaultAdaptiveConfig(15)
	acfg.DecisionIntervalSec = 10
	acfg.LookBackSec = 100
	ad, err := NewAdaptiveDecider(acfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny SSD: every admitted file spills; ACT must climb.
	c := testCluster(t, 100, ad)
	now := 0.0
	for i := 0; i < 400; i++ {
		name := "f" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
		h, err := c.Create(name, 1000, Hint{JobID: name, Category: 8, SizeBytes: 1000}, now)
		if err != nil {
			t.Fatal(err)
		}
		_ = h.Delete()
		now += 5
	}
	if act := ad.ACT(); act <= 1 {
		t.Errorf("ACT = %d after sustained spillover, want > 1", act)
	}
	// Category 0 is never admitted.
	if ad.Decide(Hint{Category: 0}, now) {
		t.Error("category 0 admitted")
	}
}

func TestDeviceClassString(t *testing.T) {
	if HDD.String() != "hdd" || SSD.String() != "ssd" {
		t.Errorf("device class strings wrong")
	}
}
