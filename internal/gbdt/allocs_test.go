//go:build !race

package gbdt_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"repro/internal/gbdt"
)

// TestResidentBytes: a loaded model keeps its forest and next to
// nothing beside it, and what ResidentBytes counts from lengths is what
// the heap holds, less the allocator's rounding of every array up to a
// size class: 9 % of this fixture's 27 KB model, whose 11 KB node array
// alone is rounded up by 1.2 KB; at paper scale the arrays are rounded
// to pages, under 1 %. The schema, which ResidentBytes leaves out, is
// taken off what the heap holds.
func TestResidentBytes(t *testing.T) {
	const loads = 32
	models := make([]*gbdt.Model, loads)
	schemas := make([]*gbdt.Schema, loads)
	heap := func() float64 {
		runtime.GC()
		runtime.GC() // the second empties what encoding/json's pools held through the first
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	file, err := os.ReadFile(compatModelFile)
	if err != nil {
		t.Fatal(err)
	}
	var member struct {
		Schema json.RawMessage `json:"schema"`
	}
	if err := json.Unmarshal(file, &member); err != nil {
		t.Fatal(err)
	}
	loadCompatModel(t) // encoding/json keeps what it learns of a type on first sight
	before := heap()
	for i := range schemas {
		if err := json.Unmarshal(member.Schema, &schemas[i]); err != nil {
			t.Fatal(err)
		}
	}
	decoded := heap()
	for i := range models {
		models[i] = loadCompatModel(t)
	}
	schema := (decoded - before) / loads
	held := (heap()-decoded)/loads - schema
	counted := models[0].ResidentBytes()
	t.Logf("a loaded model: ResidentBytes %d, the heap holds %.0f (%.1f%% more) and %.0f for its schema", counted, held, 100*(held/float64(counted)-1), schema)
	if held < float64(counted) || held > 1.10*float64(counted) {
		t.Errorf("a loaded model holds %.0f bytes of heap beside its schema, not within 10%% above its ResidentBytes %d", held, counted)
	}
	if forest := gbdt.Compiled(t, models[0]).ResidentBytes(); counted > forest+1024 {
		t.Errorf("a loaded model counts %d bytes, %d more than its forest's %d: it keeps more than its forest", counted, counted-forest, forest)
	}
	runtime.KeepAlive(models)
	runtime.KeepAlive(schemas)
}
