package features

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/gbdt"
)

// trainedBinnerFixture trains a small classifier on generated jobs and
// derives its binner.
func trainedBinnerFixture(t *testing.T) (*Encoder, *gbdt.Model, *Binner) {
	t.Helper()
	jobs := sampleJobs()
	enc := BuildEncoder(jobs, 0)
	ds := enc.Dataset(jobs)
	labels := make([]int, len(jobs))
	for i, j := range jobs {
		labels[i] = int(math.Mod(j.SizeBytes, 5))
		if labels[i] < 0 {
			labels[i] = 0
		}
	}
	cfg := gbdt.DefaultConfig()
	cfg.NumRounds = 8
	cfg.MaxDepth = 4
	model, err := gbdt.TrainClassifier(ds, labels, 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BinnerForModel(model)
	if err != nil {
		t.Fatal(err)
	}
	return enc, model, b
}

// TestBinnerPreservesDecisions is the load-bearing contract of the wire
// protocol's pre-binning: for every job, the model's logits on the
// bin-representative row must be bit-identical to its logits on the raw
// row, through both the recursive trees and the compiled flat forest.
func TestBinnerPreservesDecisions(t *testing.T) {
	enc, model, b := trainedBinnerFixture(t)
	forest, err := model.Compile()
	if err != nil {
		t.Fatal(err)
	}
	jobs := sampleJobs()
	var row, rep []float64
	var bins []uint16
	for _, j := range jobs[:500] {
		row = enc.Encode(j, row)
		bins = b.Bin(row, bins)
		if err := b.ValidateBins(bins); err != nil {
			t.Fatalf("job %s: %v", j.ID, err)
		}
		rep = b.Unbin(bins, rep)
		want := model.Logits(row)
		got := model.Logits(rep)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("job %s: logits diverge: raw %v binned %v", j.ID, want, got)
		}
		if fw, fg := forest.PredictClass(row), forest.PredictClass(rep); fw != fg {
			t.Fatalf("job %s: forest class diverges: raw %d binned %d", j.ID, fw, fg)
		}
	}
}

func TestBinnerNaNGoesToBinZero(t *testing.T) {
	_, model, b := trainedBinnerFixture(t)
	nf := b.NumFeatures()
	raw := make([]float64, nf)
	for f := 0; f < nf; f++ {
		if b.Cards[f] == 0 {
			raw[f] = math.NaN()
		}
	}
	bins := b.Bin(raw, nil)
	for f := 0; f < nf; f++ {
		if b.Cards[f] == 0 && bins[f] != 0 {
			t.Fatalf("feature %d: NaN binned to %d, want 0", f, bins[f])
		}
	}
	// NaN routes left at every split, and so must its representative.
	rep := b.Unbin(bins, nil)
	want := model.Logits(raw)
	got := model.Logits(rep)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("NaN row logits diverge: raw %v binned %v", want, got)
	}
}

func TestBinnerBinBoundaries(t *testing.T) {
	edges := [][]float64{{1, 2, 5}, nil}
	cards := []int{0, 7}
	b, err := NewBinner(edges, cards)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		v    float64
		want uint16
	}{
		{0, 0}, {1, 0}, {1.5, 1}, {2, 1}, {3, 2}, {5, 2}, {5.1, 3},
		{math.Inf(-1), 0}, {math.Inf(1), 3}, {math.NaN(), 0},
	}
	for _, c := range cases {
		got := b.Bin([]float64{c.v, 3}, nil)
		if got[0] != c.want {
			t.Errorf("Bin(%g) = %d, want %d", c.v, got[0], c.want)
		}
		if got[1] != 3 {
			t.Errorf("categorical id not identity: got %d", got[1])
		}
	}
	rep := b.Unbin([]uint16{3, 6}, nil)
	if !math.IsInf(rep[0], 1) {
		t.Errorf("last bin representative = %g, want +Inf", rep[0])
	}
	if rep[1] != 6 {
		t.Errorf("categorical representative = %g, want 6", rep[1])
	}
}

func TestNewBinnerRejectsInvalid(t *testing.T) {
	cases := []struct {
		name  string
		edges [][]float64
		cards []int
	}{
		{"length mismatch", [][]float64{nil}, []int{0, 7}},
		{"non-increasing", [][]float64{{1, 1}}, []int{0}},
		{"nan edge", [][]float64{{math.NaN()}}, []int{0}},
		{"inf edge", [][]float64{{math.Inf(1)}}, []int{0}},
		{"card too large", [][]float64{nil}, []int{MaxCategoricalCard + 1}},
		{"negative card", [][]float64{nil}, []int{-1}},
		{"categorical with edges", [][]float64{{1}}, []int{7}},
	}
	for _, c := range cases {
		if _, err := NewBinner(c.edges, c.cards); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestBinnerValidateBins(t *testing.T) {
	b, err := NewBinner([][]float64{{1, 2}, nil}, []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ValidateBins([]uint16{2, 3}); err != nil {
		t.Errorf("valid bins rejected: %v", err)
	}
	if err := b.ValidateBins([]uint16{3, 0}); err == nil {
		t.Error("numeric bin past edge count accepted")
	}
	if err := b.ValidateBins([]uint16{0, 4}); err == nil {
		t.Error("categorical id >= card accepted")
	}
	if err := b.ValidateBins([]uint16{0}); err == nil {
		t.Error("short row accepted")
	}
}

func TestBinnerJSONRoundTrip(t *testing.T) {
	_, _, b := trainedBinnerFixture(t)
	blob, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Binner
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	rt, err := NewBinner(decoded.Edges, decoded.Cards)
	if err != nil {
		t.Fatalf("round-tripped binner invalid: %v", err)
	}
	if !reflect.DeepEqual(b, rt) {
		t.Fatal("binner changed across JSON round trip")
	}
}
