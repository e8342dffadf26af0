package online

// driftDetector compares the window's rolling category distribution
// against a reference snapshot taken at the last retrain attempt.
//
// It watches the distribution of *served* categories over the feedback
// window — the live model's own view of the traffic. When the workload
// mix changes (the scenario internal/experiments/drift.go constructs:
// users and pipelines swap out across a splice), the predicted-category
// histogram shifts with it, and the total-variation distance from the
// reference crosses Config.DriftTV long before the cadence timer would
// fire.
type driftDetector struct {
	tv  float64   // Config.DriftTV; 0 disables the detector
	ref []float64 // distribution at the last retrain (nil until armed)
}

// arm copies dist as the new reference (called at every retrain
// trigger, so a single shift fires one retrain, not a storm). Copying
// lets callers pass a reused buffer.
func (d *driftDetector) arm(dist []float64) { d.ref = append(d.ref[:0], dist...) }

// shifted reports whether the current distribution has moved more than
// the threshold away from the reference. With no reference yet it arms
// on dist and reports false; the learner first asks once the window
// holds Config.MinRetrainJobs entries.
func (d *driftDetector) shifted(dist []float64) bool {
	if d.tv <= 0 || dist == nil {
		return false
	}
	if d.ref == nil {
		d.arm(dist)
		return false
	}
	return totalVariation(d.ref, dist) > d.tv
}

// totalVariation is the total-variation distance between two discrete
// distributions over the same support: half the L1 distance.
func totalVariation(p, q []float64) float64 {
	n := len(p)
	if len(q) < n {
		n = len(q)
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		d := p[i] - q[i]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	for i := n; i < len(p); i++ {
		sum += p[i]
	}
	for i := n; i < len(q); i++ {
		sum += q[i]
	}
	return sum / 2
}
