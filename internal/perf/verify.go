package perf

import (
	"fmt"

	"repro/internal/trace"
)

const (
	// forestSampleOneIn and modelSampleOneIn are the seeded sampling
	// rates of the two reference checks.
	forestSampleOneIn = 64
	modelSampleOneIn  = 1024
)

// sampled reports whether replay job n is in the seed's 1-in-oneIn
// sample. The same seed picks the same jobs on every run.
func sampled(seed int64, n int, oneIn uint64) bool {
	return mix(uint64(seed), uint64(n))%oneIn == 0
}

// verify checks a phase's recorded categories against the model run
// locally on freshly encoded rows: a 1-in-64 sample against the
// compiled forest and a 1-in-1024 sample against CategoryModel.Predict.
// Count, order and model version were checked on every decision as it
// arrived. It returns how many reference checks it made and how many
// disagreed.
func (r *servingRig) verify(ph *phase) (checked, wrong int64, err error) {
	forest, err := r.model.Model.Compile()
	if err != nil {
		return 0, 0, fmt.Errorf("perf: compiling reference forest: %w", err)
	}
	store := make([]trace.Job, ph.batch)
	ptrs := make([]*trace.Job, 0, ph.batch)
	var row []float64
	for c := range ph.conns {
		log := &ph.conns[c]
		for i := range log.latNs {
			g := log.first + i*log.step
			var jobs []*trace.Job
			for k := 0; k < ph.batch; k++ {
				n := g*ph.batch + k
				got := int(log.cats[i*ph.batch+k])
				if got == failedCategory || !sampled(r.f.Seed, n, forestSampleOneIn) {
					continue
				}
				if jobs == nil {
					jobs = r.f.Batch(g, ph.batch, store, ptrs)
				}
				row = r.model.Encoder.Encode(jobs[k], row)
				checked++
				if forest.PredictClass(row) != got {
					wrong++
				}
				if sampled(r.f.Seed, n, modelSampleOneIn) {
					checked++
					if r.model.Predict(jobs[k]) != got {
						wrong++
					}
				}
			}
		}
	}
	return checked, wrong, nil
}
