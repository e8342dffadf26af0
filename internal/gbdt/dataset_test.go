package gbdt

import (
	"math"
	"slices"
	"testing"
)

func numSchema(n int) *Schema {
	s := &Schema{}
	for i := 0; i < n; i++ {
		s.Names = append(s.Names, "f"+string(rune('a'+i)))
		s.Kinds = append(s.Kinds, Numeric)
		s.Cards = append(s.Cards, 0)
	}
	return s
}

func TestSchemaValidate(t *testing.T) {
	ok := &Schema{Names: []string{"a", "b"}, Kinds: []FeatureKind{Numeric, Categorical}, Cards: []int{0, 3}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	bad := []*Schema{
		{Names: []string{"a"}, Kinds: []FeatureKind{Numeric}, Cards: []int{0, 1}},
		{Names: []string{"a"}, Kinds: []FeatureKind{Numeric}, Cards: []int{5}},
		{Names: []string{"a"}, Kinds: []FeatureKind{Categorical}, Cards: []int{0}},
		{Names: []string{"a"}, Kinds: []FeatureKind{FeatureKind(9)}, Cards: []int{0}},
		{Names: []string{"a"}, Kinds: []FeatureKind{Numeric}, Cards: []int{0}, Groups: []string{"A", "B"}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schema %d accepted", i)
		}
	}
}

func TestDatasetValidateCategorical(t *testing.T) {
	s := &Schema{Names: []string{"c"}, Kinds: []FeatureKind{Categorical}, Cards: []int{3}}
	ds := NewDataset(s, 3)
	ds.Set(0, 0, 0)
	ds.Set(1, 0, 2)
	ds.Set(2, 0, 1)
	if err := ds.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	ds.Set(2, 0, 3) // out of range
	if err := ds.Validate(); err == nil {
		t.Error("out-of-range category accepted")
	}
	ds.Set(2, 0, 1.5) // non-integer
	if err := ds.Validate(); err == nil {
		t.Error("non-integer category accepted")
	}
	ds.Set(2, 0, math.NaN()) // missing is allowed
	if err := ds.Validate(); err != nil {
		t.Errorf("NaN category rejected: %v", err)
	}
}

func TestRowCopy(t *testing.T) {
	ds := NewDataset(numSchema(3), 2)
	ds.Set(0, 0, 1)
	ds.Set(0, 1, 2)
	ds.Set(0, 2, 3)
	row := ds.Row(0, nil)
	if row[0] != 1 || row[1] != 2 || row[2] != 3 {
		t.Errorf("Row = %v", row)
	}
	buf := make([]float64, 3)
	row2 := ds.Row(0, buf)
	if &row2[0] != &buf[0] {
		t.Error("Row did not reuse provided buffer")
	}
}

func TestNumericBoundaries(t *testing.T) {
	// Constant column: no boundaries.
	if b := numericBoundaries([]float64{5, 5, 5}, 8, nil, nil); b != nil {
		t.Errorf("constant column boundaries = %v, want nil", b)
	}
	// Two distinct values: single midpoint boundary.
	b := numericBoundaries([]float64{0, 0, 1, 1}, 8, nil, nil)
	if len(b) != 1 || b[0] != 0.5 {
		t.Errorf("boundaries = %v, want [0.5]", b)
	}
	// Boundaries must be strictly increasing.
	many := make([]float64, 1000)
	for i := range many {
		many[i] = float64(i % 17)
	}
	b = numericBoundaries(many, 8, nil, nil)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("boundaries not increasing: %v", b)
		}
	}
	// All NaN: nil.
	if b := numericBoundaries([]float64{math.NaN(), math.NaN()}, 8, nil, nil); b != nil {
		t.Errorf("all-NaN boundaries = %v, want nil", b)
	}
	// The ranks read the sample after its distinct values were compacted
	// over it, so this skewed column gets [1.5 4.5] where uniform ranks
	// over the full sample would give [0.5 1.5 3.5]. Every model is
	// trained on these bins: the pin holds today's output until a change
	// that moves every model fixes it.
	skewed := []float64{0, 0, 0, 0, 1, 2, 3, 4, 5, 6}
	if b := numericBoundaries(skewed, 4, nil, make([]float64, 0, 3)); !slices.Equal(b, []float64{1.5, 4.5}) {
		t.Errorf("skewed column boundaries = %v, want [1.5 4.5]", b)
	}
}

func TestFindBin(t *testing.T) {
	bounds := []float64{1, 3, 5}
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {1, 0}, {1.5, 1}, {3, 1}, {4, 2}, {5, 2}, {6, 3},
		{math.NaN(), 0}, {math.Inf(-1), 0}, {math.Inf(1), 3},
	}
	for _, c := range cases {
		if got := findBin(bounds, c.v); got != c.want {
			t.Errorf("findBin(%g) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBuildBinningRoundTrip(t *testing.T) {
	// Every row must land in the bin whose boundary interval contains it.
	s := numSchema(1)
	ds := NewDataset(s, 100)
	for i := 0; i < 100; i++ {
		ds.Set(i, 0, float64(i*i%37))
	}
	bn := buildBinning(ds, 16, 1)
	for i := 0; i < 100; i++ {
		v := ds.Cols[0][i]
		bin := int(bn.binned[0][i])
		uppers := bn.uppers[0]
		if bin > 0 && v <= uppers[bin-1] {
			t.Fatalf("row %d value %g in bin %d but <= lower boundary %g", i, v, bin, uppers[bin-1])
		}
		if bin < len(uppers) && v > uppers[bin] {
			t.Fatalf("row %d value %g in bin %d but > upper boundary %g", i, v, bin, uppers[bin])
		}
	}
}

func TestBuildBinningCategorical(t *testing.T) {
	s := &Schema{Names: []string{"c"}, Kinds: []FeatureKind{Categorical}, Cards: []int{4}}
	ds := NewDataset(s, 4)
	for i := 0; i < 4; i++ {
		ds.Set(i, 0, float64(3-i))
	}
	bn := buildBinning(ds, 16, 1)
	if bn.numBins[0] != 4 {
		t.Errorf("categorical numBins = %d, want 4", bn.numBins[0])
	}
	for i := 0; i < 4; i++ {
		if int(bn.binned[0][i]) != 3-i {
			t.Errorf("bin[%d] = %d, want %d", i, bn.binned[0][i], 3-i)
		}
	}
}

func TestContainsCat(t *testing.T) {
	cats := []int32{1, 3, 7}
	for _, c := range []struct {
		v    float64
		want bool
	}{{1, true}, {3, true}, {7, true}, {0, false}, {2, false}, {8, false}, {math.NaN(), false}} {
		if got := containsCat(cats, c.v); got != c.want {
			t.Errorf("containsCat(%g) = %v, want %v", c.v, got, c.want)
		}
	}
	if containsCat(nil, 1) {
		t.Error("empty set should contain nothing")
	}
}
