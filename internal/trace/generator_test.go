package trace

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func genTrace(t *testing.T, seed int64) *Trace {
	t.Helper()
	cfg := DefaultGeneratorConfig("C0", seed)
	cfg.DurationSec = 3 * 24 * 3600
	tr := NewGenerator(cfg).Generate()
	if len(tr.Jobs) == 0 {
		t.Fatal("generator produced no jobs")
	}
	return tr
}

func TestGeneratorDeterminism(t *testing.T) {
	a := genTrace(t, 11)
	b := genTrace(t, 11)
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("non-deterministic job count: %d vs %d", len(a.Jobs), len(b.Jobs))
	}
	for i := range a.Jobs {
		if *a.Jobs[i] != *b.Jobs[i] {
			t.Fatalf("job %d differs between identical seeds", i)
		}
	}
	c := genTrace(t, 12)
	if len(a.Jobs) == len(c.Jobs) {
		same := true
		for i := range a.Jobs {
			if a.Jobs[i].SizeBytes != c.Jobs[i].SizeBytes {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

// TestGenerateSortMatchesStable: Generate sorts with the unstable
// slices.SortFunc, which is only safe because generated IDs are unique
// and (ArrivalSec, ID) is then a total order. Its output must equal a
// stable sort of a shuffled copy, for four seeds of the default config
// and for a cluster config with an uneven archetype mix whose trace
// spans many 256-job blocks.
func TestGenerateSortMatchesStable(t *testing.T) {
	var cfgs []GeneratorConfig
	for seed := int64(1); seed <= 4; seed++ {
		cfg := DefaultGeneratorConfig("C0", seed)
		cfg.DurationSec = 3 * 24 * 3600
		cfgs = append(cfgs, cfg)
	}
	multi := ClusterConfigs(4, 9)[3]
	multi.DurationSec, multi.LoadScale = 5*24*3600, 2
	cfgs = append(cfgs, multi)
	for _, cfg := range cfgs {
		tr := NewGenerator(cfg).Generate()
		if len(tr.Jobs) < 4*jobBlock {
			t.Fatalf("%s seed %d: %d jobs, want several blocks", cfg.Cluster, cfg.Seed, len(tr.Jobs))
		}
		ids := map[string]bool{}
		for _, j := range tr.Jobs {
			if ids[j.ID] {
				t.Fatalf("%s seed %d: duplicate ID %s", cfg.Cluster, cfg.Seed, j.ID)
			}
			ids[j.ID] = true
		}
		shuffled := slices.Clone(tr.Jobs)
		rand.New(rand.NewSource(cfg.Seed)).Shuffle(len(shuffled), func(a, b int) {
			shuffled[a], shuffled[b] = shuffled[b], shuffled[a]
		})
		(&Trace{Jobs: shuffled}).Sort()
		for i, j := range tr.Jobs {
			if j != shuffled[i] {
				t.Fatalf("%s seed %d: job %d is %s, a stable sort puts %s there",
					cfg.Cluster, cfg.Seed, i, j.ID, shuffled[i].ID)
			}
		}
	}
}

func TestGeneratorJobsValid(t *testing.T) {
	tr := genTrace(t, 3)
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	for _, j := range tr.Jobs {
		if j.ArrivalSec < 0 || j.ArrivalSec > 3*24*3600 {
			t.Fatalf("job %s arrival %g outside window", j.ID, j.ArrivalSec)
		}
		if j.WriteBytes < j.SizeBytes {
			t.Fatalf("job %s writes %g < size %g (data must be written at least once)",
				j.ID, j.WriteBytes, j.SizeBytes)
		}
		if j.AvgReadSizeBytes < 4096 {
			t.Fatalf("job %s read size %g below floor", j.ID, j.AvgReadSizeBytes)
		}
	}
}

// TestGeneratorLiteralConfig: a GeneratorConfig literal names no
// pipeline bounds and may leave out the step bounds or give only a
// minimum, yet every user still owns pipelines and runs jobs.
func TestGeneratorLiteralConfig(t *testing.T) {
	for _, tc := range []struct {
		name               string
		minSteps, maxSteps int
	}{
		{"explicit steps", 1, 4},
		{"no step fields", 0, 0},
		{"min steps alone", 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewGenerator(GeneratorConfig{
				Cluster: "C9", Seed: 42, NumUsers: 3,
				MinSteps: tc.minSteps, MaxSteps: tc.maxSteps, DurationSec: 24 * 3600,
			}).Generate()
			if users := tr.Users(); len(users) != 3 {
				t.Fatalf("%d jobs from users %v, want jobs from all 3 users", len(tr.Jobs), users)
			}
		})
	}
}

func TestGeneratorDiversity(t *testing.T) {
	// Fig. 1: workloads should span orders of magnitude in size and
	// lifetime. Check cross-pipeline diversity of mean job size.
	tr := genTrace(t, 5)
	bySize := map[string][]float64{}
	for _, j := range tr.Jobs {
		bySize[j.Pipeline] = append(bySize[j.Pipeline], j.SizeBytes)
	}
	if len(bySize) < 5 {
		t.Fatalf("only %d pipelines generated", len(bySize))
	}
	minMean, maxMean := math.Inf(1), math.Inf(-1)
	for _, sizes := range bySize {
		var sum float64
		for _, s := range sizes {
			sum += s
		}
		mean := sum / float64(len(sizes))
		if mean < minMean {
			minMean = mean
		}
		if mean > maxMean {
			maxMean = mean
		}
	}
	if maxMean/minMean < 50 {
		t.Errorf("pipeline mean sizes span only %.1fx, want >= 50x (Fig. 1 diversity)",
			maxMean/minMean)
	}
}

func TestGeneratorHistoryAccumulates(t *testing.T) {
	tr := genTrace(t, 7)
	// Group jobs by template in arrival order; NumRuns must increase and
	// the first execution must have zero history.
	byTemplate := map[string][]*Job{}
	for _, j := range tr.Jobs {
		k := j.TemplateKey()
		byTemplate[k] = append(byTemplate[k], j)
	}
	checkedFirst := false
	for k, jobs := range byTemplate {
		if jobs[0].History.NumRuns != 0 {
			t.Fatalf("template %s first run has history NumRuns=%d", k, jobs[0].History.NumRuns)
		}
		checkedFirst = true
		for i := 1; i < len(jobs); i++ {
			if jobs[i].History.NumRuns != i {
				t.Fatalf("template %s run %d has NumRuns=%d", k, i, jobs[i].History.NumRuns)
			}
			if jobs[i].History.AvgSizeBytes <= 0 {
				t.Fatalf("template %s run %d has no historical size", k, i)
			}
		}
	}
	if !checkedFirst {
		t.Fatal("no templates found")
	}
}

func TestGeneratorHistoryPredictive(t *testing.T) {
	// Historical average I/O density should correlate strongly with the
	// realized density — this is what makes group A features valuable.
	tr := genTrace(t, 9)
	var hist, actual []float64
	for _, j := range tr.Jobs {
		if j.History.NumRuns >= 3 {
			hist = append(hist, math.Log1p(j.History.AvgIODensity))
			actual = append(actual, math.Log1p(j.IODensity()))
		}
	}
	if len(hist) < 100 {
		t.Fatalf("too few jobs with history: %d", len(hist))
	}
	var sx, sy, sxy, sxx, syy float64
	n := float64(len(hist))
	for i := range hist {
		sx += hist[i]
		sy += actual[i]
		sxy += hist[i] * actual[i]
		sxx += hist[i] * hist[i]
		syy += actual[i] * actual[i]
	}
	corr := (sxy/n - sx/n*sy/n) / math.Sqrt((sxx/n-sx/n*sx/n)*(syy/n-sy/n*sy/n))
	if corr < 0.6 {
		t.Errorf("history/actual density correlation = %.3f, want >= 0.6", corr)
	}
}

func TestClusterConfigs(t *testing.T) {
	cfgs := ClusterConfigs(10, 1000)
	if len(cfgs) != 10 {
		t.Fatalf("got %d configs", len(cfgs))
	}
	names := map[string]bool{}
	for _, c := range cfgs {
		if names[c.Cluster] {
			t.Fatalf("duplicate cluster name %s", c.Cluster)
		}
		names[c.Cluster] = true
	}
	// Cluster 3 should be the ML-training-only outlier.
	w3 := cfgs[3].ArchetypeWeights
	if w3["mltrain"] != 1 {
		t.Errorf("cluster 3 mltrain weight = %g, want 1", w3["mltrain"])
	}
	if w3["query"] != 0 {
		t.Errorf("cluster 3 should not run query workloads")
	}
	// Other clusters should rarely run mltrain.
	if cfgs[0].ArchetypeWeights["mltrain"] >= cfgs[0].ArchetypeWeights["query"] {
		t.Errorf("cluster 0 mltrain weight should be rare")
	}
}

func TestArchetypesExposed(t *testing.T) {
	a := Archetypes()
	if len(a) < 5 {
		t.Fatalf("expected at least 5 archetypes, got %d", len(a))
	}
	seen := map[string]bool{}
	for _, ar := range a {
		if ar.Name == "" {
			t.Fatal("archetype with empty name")
		}
		if seen[ar.Name] {
			t.Fatalf("duplicate archetype %s", ar.Name)
		}
		seen[ar.Name] = true
		if ar.PeriodSec == 0 && ar.MeanInterSec == 0 {
			t.Fatalf("archetype %s has no arrival process", ar.Name)
		}
	}
	// Mutating the returned slice must not affect the library.
	a[0].Name = "mutated"
	if Archetypes()[0].Name == "mutated" {
		t.Error("Archetypes returned shared state")
	}
}

func TestDiurnalFactor(t *testing.T) {
	if f := diurnalFactor(0, 12345); f != 1 {
		t.Errorf("zero amplitude factor = %g, want 1", f)
	}
	// Peak should be around 15:00 (sin peak at hour-9 = 6).
	peak := diurnalFactor(0.5, 15*3600)
	trough := diurnalFactor(0.5, 3*3600)
	if peak <= trough {
		t.Errorf("diurnal peak %g <= trough %g", peak, trough)
	}
}
