package policy

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/features"
	"repro/internal/gbdt"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/trace"
)

// NameImitation is the imitation-learning policy's report name.
const NameImitation = "Imitation"

// Imitation is the end-to-end learning approach the paper argues
// against (Section 4, after Liu et al.): train a classifier to imitate
// the clairvoyant oracle's placement decisions directly. The oracle's
// decisions are conditioned on the SSD capacity it was solved under, so
// the model implicitly bakes in one environment; when the online quota
// differs from the training quota, its decisions are systematically
// wrong — the adaptability failure BYOM's cross-layer split avoids.
type Imitation struct {
	enc    *features.Encoder
	forest *gbdt.Forest // the imitation classifier, compiled
	// TrainQuota records the capacity the oracle labels were computed
	// under (for reporting).
	TrainQuota float64
	buf        []float64
}

// TrainImitation solves the oracle on the training jobs at the given
// capacity and fits a binary classifier to its decisions. A classifier
// the forest cannot hold is an error.
func TrainImitation(train []*trace.Job, trainQuota float64, cm *cost.Model, cfg gbdt.Config) (*Imitation, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("policy: no training jobs for imitation")
	}
	if trainQuota < 0 {
		return nil, fmt.Errorf("policy: negative training quota")
	}
	sol, err := oracle.Solve(train, trainQuota, cm, oracle.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("policy: imitation oracle: %w", err)
	}
	labels := make([]int, len(train))
	positives := 0
	for i, j := range train {
		if sol.OnSSD[j.ID] {
			labels[i] = 1
			positives++
		}
	}
	if positives == 0 {
		return nil, fmt.Errorf("policy: oracle admitted nothing at quota %g; cannot imitate", trainQuota)
	}
	enc := features.BuildEncoder(train, 0)
	ds := enc.Dataset(train)
	model, err := gbdt.TrainClassifier(ds, labels, 2, cfg)
	if err != nil {
		return nil, fmt.Errorf("policy: imitation classifier: %w", err)
	}
	forest, err := model.Compile()
	if err != nil {
		return nil, fmt.Errorf("policy: imitation classifier: %w", err)
	}
	return &Imitation{enc: enc, forest: forest, TrainQuota: trainQuota}, nil
}

// Name implements sim.Policy.
func (p *Imitation) Name() string { return NameImitation }

// Place implements sim.Policy: replay the imitated decision,
// irrespective of the actual free capacity — the model *is* the policy,
// which is precisely the problem.
func (p *Imitation) Place(j *trace.Job, _ sim.PlaceContext) bool {
	p.buf = p.enc.Encode(j, p.buf)
	return p.forest.PredictClass(p.buf) == 1
}

// Interface conformance.
var _ sim.Policy = (*Imitation)(nil)
