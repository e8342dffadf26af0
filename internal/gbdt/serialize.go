package gbdt

import (
	"encoding/json"
	"fmt"
	"io"
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
	IsLeaf    bool        `json:"leaf"`
	// A file may carry a split's gain, "g": nothing keeps it, and Load
	// passes over it.
}

type treeFile struct {
	Nodes []nodeFile `json:"nodes"`
}

// UnmarshalJSON reads a tree in the model file's shape. A number the
// narrower Node cannot hold is an error naming the node, never a
// wrapped-around value left for compile's checks to stumble on.
func (t *Tree) UnmarshalJSON(data []byte) error {
	var file treeFile
	if err := json.Unmarshal(data, &file); err != nil {
		return err
	}
	*t = Tree{Nodes: make([]Node, len(file.Nodes))}
	for i := range file.Nodes {
		n := &file.Nodes[i]
		t.Nodes[i] = Node{Feature: int32(n.Feature), Kind: uint8(n.Kind), Threshold: n.Threshold,
			Left: int32(n.Left), Right: int32(n.Right), Value: n.Value, IsLeaf: n.IsLeaf}
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
	return nil
}

// modelFile is a model as the model file spells it, with its trees as
// T: treeFile when Save writes them, raw JSON when Load reads them.
type modelFile[T any] struct {
	Schema     *Schema   `json:"schema"`
	Config     Config    `json:"config"`
	NumClasses int       `json:"num_classes"`
	InitScores []float64 `json:"init_scores"`
	Trees      [][]T     `json:"trees"`
	TrainLoss  []float64 `json:"train_loss,omitempty"`
}

// file returns the model in the model file's shape, every tree read
// back off the forest in its pre-order: a numeric split's "t" is its
// edge, a categorical split's "c" its set's ids ascending, a leaf's "v"
// its value, and a split's children are "l" i+1 and "r" i+right. The
// forest keeps no gains, so no "g" is written.
func (m *Model) file() modelFile[treeFile] {
	f := m.forest
	file := modelFile[treeFile]{Schema: m.Schema, Config: m.Config, NumClasses: m.NumClasses,
		InitScores: m.InitScores, TrainLoss: m.TrainLoss}
	for r := 0; r < f.rounds(); r++ {
		round := make([]treeFile, f.NumClasses)
		for k := range round {
			t := int(f.classStart[k]) + r
			tr, end := f.trees[t], len(f.nodes)
			if t+1 < len(f.trees) {
				end = int(f.trees[t+1].root)
			}
			nodes := f.nodes[tr.root:end]
			round[k].Nodes = make([]nodeFile, len(nodes))
			for i, n := range nodes {
				nf := &round[k].Nodes[i]
				switch n.set {
				case setNone:
					*nf = nodeFile{Value: f.leaves[int(tr.leaves)+int(n.thr)], IsLeaf: true}
					continue
				case setAll:
					nf.Threshold = f.edges[n.feat][n.thr]
				default:
					nf.LeftCats = f.ids(f.sets[int(tr.sets)+int(n.set)])
				}
				nf.Feature, nf.Kind, nf.Left, nf.Right = int(n.feat), f.kinds[n.feat], i+1, i+int(n.right)
			}
		}
		file.Trees = append(file.Trees, round)
	}
	return file
}

// MarshalJSON writes the model as Save does, so a bundle that holds
// the model writes the model file.
func (m *Model) MarshalJSON() ([]byte, error) { return json.Marshal(m.file()) }

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(m.file()); err != nil {
		return fmt.Errorf("gbdt: encode model: %w", err)
	}
	return nil
}

// Load reads a model written by Save, validates it deeply enough that
// nothing done with the result can panic, and compiles it: hostile or
// corrupted input, or a model the binned layout cannot hold
// (*LimitError), surfaces as an error here, never as an out-of-bounds
// access later. The trees are dropped once compiled.
func Load(r io.Reader) (*Model, error) {
	// The trees are held back as raw JSON and decoded one by one, so
	// that a tree's decoding error can say which tree it is.
	var file modelFile[json.RawMessage]
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return nil, fmt.Errorf("gbdt: decode model: %w", err)
	}
	trees := make([][]*Tree, len(file.Trees))
	for r, round := range file.Trees {
		trees[r] = make([]*Tree, len(round))
		for k, raw := range round {
			if err := json.Unmarshal(raw, &trees[r][k]); err != nil {
				return nil, fmt.Errorf("gbdt: decode model: round %d class %d: %w", r, k, err)
			}
		}
	}
	return newModel(&Model{Schema: file.Schema, Config: file.Config, NumClasses: file.NumClasses,
		InitScores: file.InitScores, TrainLoss: file.TrainLoss}, trees, nil)
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
		// storage): Tree.Predict and compile rely on it.
		if l, r := int(n.Left), int(n.Right); l <= i || l >= len(t.Nodes) || r <= i || r >= len(t.Nodes) {
			return fmt.Errorf("node %d has out-of-order children (%d, %d) in a %d-node tree",
				i, n.Left, n.Right, len(t.Nodes))
		}
		if n.Kind == uint8(Categorical) {
			// Tree.Predict finds an id by binary search and compile sets a
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
