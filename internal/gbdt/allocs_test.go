//go:build !race

package gbdt_test

import (
	"runtime"
	"testing"

	"repro/internal/features"
	"repro/internal/gbdt"
)

// TestThresholdsMemoisedAllocs: installing a model walks its trees for
// their thresholds once, however many of Compile and BinnerForModel ask.
func TestThresholdsMemoisedAllocs(t *testing.T) {
	m := loadCompatModel(t)
	m.NumericSplitThresholds()
	// With the walk behind it, deriving again allocates nothing, and the
	// binner of a compiled model only what a binner itself is made of.
	if allocs := testing.AllocsPerRun(10, func() { m.NumericSplitThresholds() }); allocs != 0 {
		t.Errorf("NumericSplitThresholds on a walked model: %v allocations", allocs)
	}
	unwalked := func() *gbdt.Model {
		return &gbdt.Model{Schema: m.Schema, NumClasses: m.NumClasses, InitScores: m.InitScores, Trees: m.Trees}
	}
	bin := func(m *gbdt.Model) {
		if _, err := features.BinnerForModel(m); err != nil {
			t.Fatal(err)
		}
	}
	walked := testing.AllocsPerRun(10, func() { bin(m) })
	walking := testing.AllocsPerRun(10, func() { bin(unwalked()) })
	compile := testing.AllocsPerRun(10, func() { _, _ = unwalked().Compile() })
	both := testing.AllocsPerRun(10, func() {
		fresh := unwalked()
		_, _ = fresh.Compile()
		bin(fresh)
	})
	t.Logf("allocations: a binner %v, with the walk %v; a compile %v, with its binner %v", walked, walking, compile, both)
	if walked >= walking || both-compile != walked {
		t.Errorf("the binner of a compiled model costs %v allocations, of a walked one %v, of an unwalked one %v: it walked again",
			both-compile, walked, walking)
	}
}

// TestResidentBytes: what ResidentBytes counts from lengths is what the
// heap holds, less the allocator's rounding of every array up to a size
// class. That is 7 % of this fixture's model, whose 46-node trees fall
// between the 2,048 and 2,304-byte classes, and 8 % of its 26 KB forest;
// at paper scale the arrays are rounded to pages, under 1 %.
func TestResidentBytes(t *testing.T) {
	const loads = 32
	models := make([]*gbdt.Model, loads)
	forests := make([]*gbdt.Forest, loads)
	heap := func() float64 {
		runtime.GC()
		runtime.GC() // the second empties what encoding/json's pools held through the first
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	check := func(what string, counted int, held, slack float64) {
		t.Helper()
		t.Logf("%s: ResidentBytes %d, the heap holds %.0f (%.1f%%)", what, counted, held, 100*float64(counted)/held)
		if float64(counted) > held || float64(counted) < (1-slack)*held {
			t.Errorf("%s: ResidentBytes %d is not within %.0f%% below the %.0f bytes the heap holds", what, counted, 100*slack, held)
		}
	}
	gbdt.Compiled(t, loadCompatModel(t)) // encoding/json keeps what it learns of a type on first sight
	before := heap()
	for i := range models {
		models[i] = loadCompatModel(t)
		models[i].NumericSplitThresholds()
	}
	loaded := heap()
	check("a loaded model", models[0].ResidentBytes(), (loaded-before)/loads, 0.08)
	for i := range models {
		forests[i] = gbdt.Compiled(t, models[i])
	}
	check("its forest", forests[0].ResidentBytes(), (heap()-loaded)/loads, 0.10)
	runtime.KeepAlive(models)
	runtime.KeepAlive(forests)
}
