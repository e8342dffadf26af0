package features

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/gbdt"
)

// MaxBinEdges caps the number of numeric bin edges per feature so every
// bin index fits a uint16 on the binary wire (bin values range over
// [0, len(edges)]).
const MaxBinEdges = 65534

// MaxCategoricalCard caps categorical cardinalities carried as uint16
// ids on the binary wire.
const MaxCategoricalCard = 65536

// Binner quantizes feature rows into small integer bins that preserve
// every routing decision of a specific trained model. Numeric features
// are cut at the model's own split thresholds (the only values a row is
// ever compared against), so a bin index pins down the outcome of every
// numeric split; categorical features pass through as their encoder ids.
// This is the seam behind client-side pre-binning on the serving wire:
// clients bin locally and ship uint16 rows, and the daemon reconstitutes
// representative values whose tree traversals are bit-identical to the
// raw row's.
type Binner struct {
	// Edges holds, per feature, the sorted strictly-increasing finite
	// cut points for numeric features (nil for categorical features and
	// for numeric features the model never splits on).
	Edges [][]float64 `json:"edges"`
	// Cards holds, per feature, the categorical cardinality (0 for
	// numeric features), mirroring gbdt.Schema.Cards.
	Cards []int `json:"cards"`
}

// NewBinner validates and wraps explicit edges and cards (both indexed
// by feature). It is the deserialization-side constructor; use
// BinnerForModel to derive one from a trained model.
func NewBinner(edges [][]float64, cards []int) (*Binner, error) {
	if len(edges) != len(cards) {
		return nil, fmt.Errorf("features: binner has %d edge sets but %d cards", len(edges), len(cards))
	}
	for f, es := range edges {
		if cards[f] < 0 || cards[f] > MaxCategoricalCard {
			return nil, fmt.Errorf("features: binner feature %d has cardinality %d outside [0,%d]", f, cards[f], MaxCategoricalCard)
		}
		if cards[f] > 0 && len(es) > 0 {
			return nil, fmt.Errorf("features: binner feature %d is categorical but has %d numeric edges", f, len(es))
		}
		if len(es) > MaxBinEdges {
			return nil, fmt.Errorf("features: binner feature %d has %d edges, max %d", f, len(es), MaxBinEdges)
		}
		prev := math.Inf(-1)
		for _, e := range es {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				return nil, fmt.Errorf("features: binner feature %d has non-finite edge %g", f, e)
			}
			if e <= prev {
				return nil, fmt.Errorf("features: binner feature %d edges not strictly increasing at %g", f, e)
			}
			prev = e
		}
	}
	return &Binner{Edges: edges, Cards: cards}, nil
}

// BinnerForModel derives the lossless binner of a trained model: numeric
// edges are the model's distinct split thresholds, categorical cards come
// from the schema. Every feature value between two consecutive edges is
// indistinguishable to the model, which is what makes the quantization
// decision-preserving.
func BinnerForModel(m *gbdt.Model) (*Binner, error) {
	// The per-feature arrays are the model's own, shared read-only with
	// its forest; only the list of them is this binner's to edit.
	edges := slices.Clone(m.NumericSplitThresholds())
	cards := make([]int, len(edges))
	for f := range cards {
		if m.Schema.Kinds[f] == gbdt.Categorical {
			cards[f] = m.Schema.Cards[f]
			edges[f] = nil
		}
	}
	return NewBinner(edges, cards)
}

// NumFeatures returns the row width the binner expects.
func (b *Binner) NumFeatures() int { return len(b.Cards) }

// Bin quantizes a raw feature row into bin indices, reusing out if it
// has capacity. Numeric values map to the smallest i with v <= Edges[i]
// (len(Edges) if the value exceeds every edge; NaN maps to 0, matching
// the trees' NaN-goes-left rule). Categorical ids pass through.
func (b *Binner) Bin(row []float64, out []uint16) []uint16 {
	nf := len(b.Cards)
	if cap(out) < nf {
		out = make([]uint16, nf)
	}
	out = out[:nf]
	for f := 0; f < nf; f++ {
		v := row[f]
		if b.Cards[f] > 0 {
			out[f] = uint16(int(v))
			continue
		}
		es := b.Edges[f]
		if math.IsNaN(v) {
			out[f] = 0
			continue
		}
		// Binary search: smallest i with v <= es[i].
		lo, hi := 0, len(es)
		for lo < hi {
			mid := (lo + hi) / 2
			if v <= es[mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		out[f] = uint16(lo)
	}
	return out
}

// Unbin expands bin indices back into representative feature values that
// the model cannot distinguish from the original row: bin i of a numeric
// feature becomes Edges[i] (which satisfies v <= t exactly for the same
// thresholds t as every value in the bin) or +Inf past the last edge;
// categorical ids become float ids. Reuses out if it has capacity.
func (b *Binner) Unbin(bins []uint16, out []float64) []float64 {
	nf := len(b.Cards)
	if cap(out) < nf {
		out = make([]float64, nf)
	}
	out = out[:nf]
	for f := 0; f < nf; f++ {
		id := int(bins[f])
		if b.Cards[f] > 0 {
			out[f] = float64(id)
			continue
		}
		es := b.Edges[f]
		if id < len(es) {
			out[f] = es[id]
		} else {
			out[f] = math.Inf(1)
		}
	}
	return out
}

// ValidateBins checks that every bin index of a wire row is within the
// feature's range (len(Edges) for numeric, card-1 for categorical), so a
// hostile frame cannot smuggle out-of-range ids past the codec.
func (b *Binner) ValidateBins(bins []uint16) error {
	if len(bins) != len(b.Cards) {
		return fmt.Errorf("features: row has %d bins, want %d", len(bins), len(b.Cards))
	}
	for f, id := range bins {
		if c := b.Cards[f]; c > 0 {
			if int(id) >= c {
				return fmt.Errorf("features: feature %d has categorical id %d >= card %d", f, id, c)
			}
		} else if int(id) > len(b.Edges[f]) {
			return fmt.Errorf("features: feature %d has bin %d > %d edges", f, id, len(b.Edges[f]))
		}
	}
	return nil
}
