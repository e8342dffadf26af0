package gbdt

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// nodeFile is a Node as the model file spells it: the fields and widths
// the format was born with, whatever Node has narrowed since.
type nodeFile struct {
	Feature   int         `json:"f"`
	Kind      FeatureKind `json:"k"`
	Threshold float64     `json:"t,omitempty"`
	LeftCats  []int32     `json:"c,omitempty"`
	Left      int         `json:"l"`
	Right     int         `json:"r"`
	Value     float64     `json:"v"`
	Gain      float64     `json:"g,omitempty"`
	IsLeaf    bool        `json:"leaf"`
}

type treeFile struct {
	Nodes []nodeFile `json:"nodes"`
}

// MarshalJSON writes the tree in the model file's shape, every node
// with its own "c" list.
func (t Tree) MarshalJSON() ([]byte, error) {
	file := treeFile{Nodes: make([]nodeFile, len(t.Nodes))}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		file.Nodes[i] = nodeFile{int(n.Feature), FeatureKind(n.Kind), n.Threshold, t.LeftCats(n),
			int(n.Left), int(n.Right), n.Value, n.Gain, n.IsLeaf}
	}
	return json.Marshal(file)
}

// UnmarshalJSON reads a tree in the model file's shape. A number the
// narrower Node cannot hold is an error naming the node, never a
// wrapped-around value left for Validate to stumble on.
func (t *Tree) UnmarshalJSON(data []byte) error {
	var file treeFile
	if err := json.Unmarshal(data, &file); err != nil {
		return err
	}
	*t = Tree{Nodes: make([]Node, len(file.Nodes))}
	for i := range file.Nodes {
		n := &file.Nodes[i]
		t.Nodes[i] = Node{Feature: int32(n.Feature), Kind: uint8(n.Kind), Threshold: n.Threshold,
			Left: int32(n.Left), Right: int32(n.Right), Value: n.Value, Gain: n.Gain, IsLeaf: n.IsLeaf}
		if back := t.Nodes[i]; int(back.Feature) != n.Feature || FeatureKind(back.Kind) != n.Kind ||
			int(back.Left) != n.Left || int(back.Right) != n.Right {
			return fmt.Errorf(`node %d: "f" %d, "l" %d and "r" %d must fit int32, "k" %d a byte`, i, n.Feature, n.Left, n.Right, n.Kind)
		}
		if _, ok := catsEnd(len(t.cats), len(n.LeftCats)); !ok {
			return fmt.Errorf("node %d: its %d category ids end past the 2^32-1 a tree addresses", i, len(n.LeftCats))
		}
		if len(n.LeftCats) > 0 {
			t.SetLeftCats(i, n.LeftCats)
		}
	}
	t.cats = slices.Clone(t.cats) // without append's slack
	return nil
}

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(m); err != nil {
		return fmt.Errorf("gbdt: encode model: %w", err)
	}
	return nil
}

// Load reads a model written by Save and validates it deeply enough
// that Predict*, Compile and Save on the result cannot panic: hostile
// or corrupted input must surface as an error here, never as an
// out-of-bounds access later.
func Load(r io.Reader) (*Model, error) {
	var m Model
	// The trees are held back as raw JSON and decoded one by one, so
	// that a tree's decoding error can say which tree it is.
	file := struct {
		*Model
		Trees [][]json.RawMessage `json:"trees"`
	}{Model: &m}
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return nil, fmt.Errorf("gbdt: decode model: %w", err)
	}
	for r, round := range file.Trees {
		trees := make([]*Tree, len(round))
		for k, raw := range round {
			if err := json.Unmarshal(raw, &trees[k]); err != nil {
				return nil, fmt.Errorf("gbdt: decode model: round %d class %d: %w", r, k, err)
			}
		}
		m.Trees = append(m.Trees, trees)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Validate checks the model's structural integrity: schema consistency,
// per-round tree counts, and — per tree — pre-order child links,
// in-range feature references and category ids. A model that passes is
// safe to Predict, Compile and re-Save.
func (m *Model) Validate() error {
	if m.Schema == nil {
		return fmt.Errorf("gbdt: model has no schema")
	}
	if err := m.Schema.Validate(); err != nil {
		return err
	}
	if m.Schema.NumFeatures() == 0 {
		return fmt.Errorf("gbdt: model schema has no features")
	}
	if m.NumClasses < 1 {
		return fmt.Errorf("gbdt: model has %d classes", m.NumClasses)
	}
	if len(m.InitScores) != m.NumClasses {
		return fmt.Errorf("gbdt: %d init scores for %d classes", len(m.InitScores), m.NumClasses)
	}
	for r, round := range m.Trees {
		if len(round) != m.NumClasses {
			return fmt.Errorf("gbdt: round %d has %d trees for %d classes", r, len(round), m.NumClasses)
		}
		for k, tree := range round {
			if err := m.validateTree(tree); err != nil {
				return fmt.Errorf("gbdt: round %d class %d: %w", r, k, err)
			}
		}
	}
	return nil
}

// validateTree checks one tree's nodes against the schema.
func (m *Model) validateTree(t *Tree) error {
	if t == nil || len(t.Nodes) == 0 {
		return fmt.Errorf("missing or empty tree")
	}
	numFeat := m.Schema.NumFeatures()
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.IsLeaf {
			continue
		}
		if n.Feature < 0 || int(n.Feature) >= numFeat {
			return fmt.Errorf("node %d splits on feature %d of %d", i, n.Feature, numFeat)
		}
		if FeatureKind(n.Kind) != m.Schema.Kinds[n.Feature] {
			return fmt.Errorf("node %d split kind %d disagrees with schema kind %d for feature %d",
				i, n.Kind, m.Schema.Kinds[n.Feature], n.Feature)
		}
		// Children must strictly follow their parent (pre-order
		// storage): both the descent loops and Compile rely on it.
		if l, r := int(n.Left), int(n.Right); l <= i || l >= len(t.Nodes) || r <= i || r >= len(t.Nodes) {
			return fmt.Errorf("node %d has out-of-order children (%d, %d) in a %d-node tree",
				i, n.Left, n.Right, len(t.Nodes))
		}
		if n.Kind == uint8(Categorical) {
			// Tree.Predict finds an id by binary search and Compile sets a
			// bit per id: only on a strictly ascending run do they agree.
			card, prev := m.Schema.Cards[n.Feature], int32(-1)
			for _, c := range t.LeftCats(n) {
				if c < 0 || int(c) >= card {
					return fmt.Errorf("node %d routes category %d of a cardinality-%d feature", i, c, card)
				}
				if c <= prev {
					return fmt.Errorf("node %d routes categories out of order or twice: %d after %d", i, c, prev)
				}
				prev = c
			}
		}
	}
	return nil
}
