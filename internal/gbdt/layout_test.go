package gbdt_test

import (
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/features"
	"repro/internal/gbdt"
)

// TestNodeLayout pins what a resident model costs per node: a model
// keeps no tree, only its forest, whose node is 8 bytes and whose
// arrays of nodes, leaves, sets and trees are all exactly as long as
// what they hold.
func TestNodeLayout(t *testing.T) {
	if size := gbdt.ForestNodeBytes; size != 8 {
		t.Errorf("a forest node is %d bytes, 8 wanted", size)
	}
	ds, labels, cfg := compatData()
	m, err := gbdt.TrainClassifier(ds, labels, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := gbdt.Compiled(t, m)
	if slack := f.Slack(); slack != 0 {
		t.Errorf("the forest's arrays have room for %d elements more than they hold", slack)
	}
	if f.Sets() <= 2*f.NumTrees() {
		t.Error("the fixture trained no categorical split")
	}
}

// loadCompatModel loads the checked-in model file.
func loadCompatModel(tb testing.TB) *gbdt.Model {
	tb.Helper()
	f, err := os.Open(compatModelFile)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	m, err := gbdt.Load(f)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestThresholdsMemoised: a model's split thresholds are derived by one
// walk of its trees, and the forest and the binner keep the arrays that
// walk made, not copies.
func TestThresholdsMemoised(t *testing.T) {
	m := loadCompatModel(t)
	forest, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	binner, err := features.BinnerForModel(m)
	if err != nil {
		t.Fatal(err)
	}
	first, second := m.NumericSplitThresholds(), m.NumericSplitThresholds()
	numeric := 0
	for f := range first {
		if len(first[f]) == 0 {
			if binner.Edges[f] != nil {
				t.Errorf("feature %d: no thresholds, binner edges %v", f, binner.Edges[f])
			}
			continue
		}
		numeric++
		for name, edges := range map[string][]float64{"second call": second[f], "forest": forest.Edges()[f], "binner": binner.Edges[f]} {
			if len(edges) != len(first[f]) || &edges[0] != &first[f][0] {
				t.Errorf("feature %d: the %s's %d thresholds are not the first call's array of %d", f, name, len(edges), len(first[f]))
			}
		}
	}
	if numeric == 0 {
		t.Fatal("the fixture has no numeric split")
	}
}

// boundModel is a one-class model of two rounds; round 1's tree splits
// numerically at node 0 and on categories at node 2. The cases below
// rewrite one number of it.
const boundModel = `{"schema":{"names":["x","c"],"kinds":[0,1],"cards":[0,8]},"num_classes":1,"init_scores":[0],` +
	`"trees":[[{"nodes":[{"leaf":true}]}],[{"nodes":[{"f":0,"k":0,"t":1,"l":1,"r":2},{"leaf":true},` +
	`{"f":1,"k":1,"c":[1,4],"l":3,"r":4},{"leaf":true},{"leaf":true}]}]]}`

// loadBoundCases are model files on both sides of what a Node's narrow
// fields hold and of what a sorted id run is; wantErr is what Load's
// error names (each part around a …), empty when the file loads.
// testdata/fuzz/FuzzLoadModel holds each as a seed, under its name.
var loadBoundCases = []struct {
	name     string
	old, new string
	wantErr  string
}{
	{"unedited", `"f":0`, `"f":0`, ""},
	{"feature_int32_max", `"f":0`, `"f":2147483647`, "round 1 class 0: node 0 splits on feature 2147483647"},
	{"feature_past_int32", `"f":0`, `"f":2147483648`, `round 1 class 0: node 0: …"f" 2147483648`},
	{"feature_below_int32", `"f":0`, `"f":-2147483649`, `round 1 class 0: node 0: …"f" -2147483649`},
	{"feature_wraps_to_0", `"f":0`, `"f":4294967296`, `round 1 class 0: node 0: …"f" 4294967296`},
	{"left_int32_max", `"l":1`, `"l":2147483647`, "round 1 class 0: node 0 has out-of-order children (2147483647, 2)"},
	{"left_past_int32", `"l":1`, `"l":2147483648`, `round 1 class 0: node 0: …"l" 2147483648`},
	{"left_wraps_to_1", `"l":1`, `"l":4294967297`, `round 1 class 0: node 0: …"l" 4294967297`},
	{"right_int32_min", `"r":4`, `"r":-2147483648`, "round 1 class 0: node 2 has out-of-order children (3, -2147483648)"},
	{"right_below_int32", `"r":4`, `"r":-2147483649`, `round 1 class 0: node 2: …"r" -2147483649`},
	{"right_wraps_to_4", `"r":4`, `"r":-4294967292`, `round 1 class 0: node 2: …"r" -4294967292`},
	{"right_past_int64", `"r":4`, `"r":1e30`, "round 1 class 0: json: cannot unmarshal number 1e30"},
	{"kind_byte_max", `"k":1`, `"k":255`, "round 1 class 0: node 2 split kind 255 disagrees"},
	{"kind_past_byte", `"k":1`, `"k":257`, `round 1 class 0: node 2: …"k" 257`},
	{"ids_descending", `"c":[1,4]`, `"c":[4,1]`, "round 1 class 0: node 2 routes categories out of order or twice: 1 after 4"},
	{"id_twice", `"c":[1,4]`, `"c":[1,1,4]`, "round 1 class 0: node 2 routes categories out of order or twice: 1 after 1"},
}

// TestLoadAtNodeBounds: a number a Node cannot hold, or an id run a
// binary search cannot search, is Load's error naming round, class and
// node; what fits loads or fails validation on its own value.
func TestLoadAtNodeBounds(t *testing.T) {
	for _, c := range loadBoundCases {
		if !strings.Contains(boundModel, c.old) {
			t.Fatalf("%s: the model has no %s", c.name, c.old)
		}
		data := strings.Replace(boundModel, c.old, c.new, 1)
		if c.old != c.new {
			seed, err := os.ReadFile("testdata/fuzz/FuzzLoadModel/bound_" + c.name)
			if err != nil || !strings.Contains(string(seed), strconv.Quote(data)) {
				t.Errorf("%s: the fuzz corpus does not hold this file (%v)", c.name, err)
			}
		}
		_, err := gbdt.Load(strings.NewReader(data))
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s: loaded, want an error naming %q", c.name, c.wantErr)
		case c.wantErr != "":
			for _, part := range append(strings.Split(c.wantErr, "…"), "gbdt: ") {
				if !strings.Contains(err.Error(), part) {
					t.Errorf("%s: error %q does not name %q", c.name, err, part)
				}
			}
		}
	}
	// A tree's id runs end where a uint32 does; no file is long enough to
	// get there, so the bound is asked directly.
	for _, c := range []struct {
		at, n int
		ok    bool
	}{{0, 0, true}, {math.MaxUint32 - 2, 2, true}, {math.MaxUint32 - 2, 3, false}, {math.MaxUint32, 1, false}} {
		if end, ok := gbdt.CatsEnd(c.at, c.n); ok != c.ok || ok && int(end) != c.at+c.n {
			t.Errorf("a run of %d ids behind %d: end %d, fits %v; want fits %v", c.n, c.at, end, ok, c.ok)
		}
	}
}
