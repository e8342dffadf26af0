package trace

import (
	"bytes"
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
)

// Archetype captures one class of workload behaviour. Pipelines are
// instances of an archetype with per-pipeline multipliers; steps within
// a pipeline are job templates with per-step multipliers. The archetype
// drives both the I/O behaviour (and hence the job's true importance)
// and the execution-metadata strings, which is what makes the placement
// problem learnable from application-level features — the property the
// whole BYOM design relies on.
type Archetype struct {
	Name string

	// Lognormal parameters for the peak intermediate-file size in bytes.
	SizeMu, SizeSigma float64
	// Lognormal parameters for the job lifetime in seconds.
	LifeMu, LifeSigma float64
	// Reads = size * readFactor; lognormal.
	ReadFactorMu, ReadFactorSigma float64
	// Writes = size * writeAmp; lognormal (>= ~1, data is written once
	// plus sorter rewrites).
	WriteAmpMu, WriteAmpSigma float64
	// Mean read-operation size in bytes; lognormal. Small random reads
	// are HDD-hostile (high TCIO), large sequential ones are benign.
	ReadSizeMu, ReadSizeSigma float64
	// CacheHitMean/Spread parameterize the DRAM-cache hit fraction.
	CacheHitMean, CacheHitSpread float64

	// Arrival process: if PeriodSec > 0 the template reruns periodically
	// with jitter; otherwise arrivals are Poisson with MeanInterSec.
	PeriodSec    float64
	MeanInterSec float64

	// DiurnalAmp in [0,1) scales arrival intensity with hour-of-day.
	DiurnalAmp float64
}

// builtinArchetypes returns the archetype library. The mix reproduces the
// paper's observation (Fig. 1) that workloads differ by orders of
// magnitude in space usage and lifetime, and Section 5.2's split between
// HDD-suitable and SSD-suitable pipelines.
func builtinArchetypes() []Archetype {
	const (
		kib = 1024.0
		mib = 1024 * kib
		gib = 1024 * mib
	)
	ln := math.Log
	return []Archetype{
		{
			// Log processing: huge sequential write-mostly shuffles,
			// cheap on HDD (negative TCO savings on SSD: wear dominates).
			Name:   "logproc",
			SizeMu: ln(64 * gib), SizeSigma: 1.2,
			LifeMu: ln(2 * 3600), LifeSigma: 0.7,
			ReadFactorMu: ln(0.9), ReadFactorSigma: 0.4,
			WriteAmpMu: ln(2.2), WriteAmpSigma: 0.3,
			ReadSizeMu: ln(2 * mib), ReadSizeSigma: 0.4,
			CacheHitMean: 0.55, CacheHitSpread: 0.15,
			PeriodSec:  5400,
			DiurnalAmp: 0.2,
		},
		{
			// Interactive query / table joins: many hot small random
			// reads over a modest footprint — prime SSD candidates.
			Name:   "query",
			SizeMu: ln(48 * gib), SizeSigma: 1.4,
			LifeMu: ln(3600), LifeSigma: 0.9,
			ReadFactorMu: ln(8), ReadFactorSigma: 0.8,
			WriteAmpMu: ln(1.3), WriteAmpSigma: 0.25,
			ReadSizeMu: ln(48 * kib), ReadSizeSigma: 0.7,
			CacheHitMean: 0.25, CacheHitSpread: 0.15,
			MeanInterSec: 900,
			DiurnalAmp:   0.7,
		},
		{
			// ML training checkpoints: large writes, rare reads, long
			// retention — HDD-suitable (wearout on SSD never pays off).
			Name:   "mltrain",
			SizeMu: ln(128 * gib), SizeSigma: 1.0,
			LifeMu: ln(12 * 3600), LifeSigma: 0.8,
			ReadFactorMu: ln(0.15), ReadFactorSigma: 0.6,
			WriteAmpMu: ln(1.1), WriteAmpSigma: 0.15,
			ReadSizeMu: ln(8 * mib), ReadSizeSigma: 0.3,
			CacheHitMean: 0.35, CacheHitSpread: 0.2,
			PeriodSec:  3 * 3600,
			DiurnalAmp: 0.05,
		},
		{
			// Streaming aggregation: tiny, short-lived, very hot files.
			Name:   "streaming",
			SizeMu: ln(6 * gib), SizeSigma: 1.1,
			LifeMu: ln(1800), LifeSigma: 0.8,
			ReadFactorMu: ln(10), ReadFactorSigma: 0.7,
			WriteAmpMu: ln(1.5), WriteAmpSigma: 0.3,
			ReadSizeMu: ln(64 * kib), ReadSizeSigma: 0.6,
			CacheHitMean: 0.3, CacheHitSpread: 0.15,
			MeanInterSec: 1000,
			DiurnalAmp:   0.5,
		},
		{
			// Scientific simulation sweeps: medium balanced I/O,
			// borderline placement (in between, per Section 2.2).
			Name:   "simulation",
			SizeMu: ln(8 * gib), SizeSigma: 1.3,
			LifeMu: ln(3600), LifeSigma: 0.9,
			ReadFactorMu: ln(5), ReadFactorSigma: 0.9,
			WriteAmpMu: ln(1.6), WriteAmpSigma: 0.4,
			ReadSizeMu: ln(256 * kib), ReadSizeSigma: 0.9,
			CacheHitMean: 0.4, CacheHitSpread: 0.2,
			PeriodSec:  4 * 3600,
			DiurnalAmp: 0.1,
		},
		{
			// Video processing: very large, mostly-sequential reads.
			Name:   "videoproc",
			SizeMu: ln(200 * gib), SizeSigma: 0.9,
			LifeMu: ln(3 * 3600), LifeSigma: 0.6,
			ReadFactorMu: ln(2.2), ReadFactorSigma: 0.5,
			WriteAmpMu: ln(1.2), WriteAmpSigma: 0.2,
			ReadSizeMu: ln(1 * mib), ReadSizeSigma: 0.4,
			CacheHitMean: 0.4, CacheHitSpread: 0.15,
			PeriodSec:  3 * 3600,
			DiurnalAmp: 0.15,
		},
		{
			// Database batch jobs: medium footprint, moderately random.
			Name:   "dbbatch",
			SizeMu: ln(24 * gib), SizeSigma: 1.2,
			LifeMu: ln(1800), LifeSigma: 0.8,
			ReadFactorMu: ln(6), ReadFactorSigma: 0.8,
			WriteAmpMu: ln(1.4), WriteAmpSigma: 0.3,
			ReadSizeMu: ln(128 * kib), ReadSizeSigma: 0.8,
			CacheHitMean: 0.3, CacheHitSpread: 0.15,
			PeriodSec:  5400,
			DiurnalAmp: 0.4,
		},
	}
}

// Each user owns between minPipes and maxPipes pipelines.
const minPipes, maxPipes = 1, 4

// Archetypes returns a copy of the built-in archetype library.
func Archetypes() []Archetype { return builtinArchetypes() }

// GeneratorConfig configures a synthetic cluster workload.
type GeneratorConfig struct {
	Cluster     string
	Seed        int64
	NumUsers    int
	MinSteps    int // shuffle steps per pipeline, min (0 = 1)
	MaxSteps    int // shuffle steps per pipeline, max (0 = 4; below MinSteps = MinSteps)
	DurationSec float64
	// ArchetypeWeights selects the archetype mix; nil = uniform. Keys
	// are archetype names; missing names get weight 0.
	ArchetypeWeights map[string]float64
	// LoadScale multiplies arrival rates (1 = default).
	LoadScale float64
	// NoiseScale multiplies per-job lognormal noise sigmas (1 = default).
	// Larger values make the placement problem harder to learn.
	NoiseScale float64
}

// DefaultGeneratorConfig returns a medium-sized cluster config producing
// a workload comparable (in relative diversity, not absolute scale) to
// one of the paper's evaluation clusters.
func DefaultGeneratorConfig(cluster string, seed int64) GeneratorConfig {
	return GeneratorConfig{
		Cluster:     cluster,
		Seed:        seed,
		NumUsers:    12,
		MinSteps:    1,
		MaxSteps:    4,
		DurationSec: 14 * 24 * 3600, // two contiguous weeks: train + test
		LoadScale:   1,
		NoiseScale:  1,
	}
}

// ClusterConfigs builds n distinct cluster configurations with uneven
// archetype distributions (the paper: "the distribution of applications
// is uneven among clusters"). Cluster index 3 is the pathological
// cluster used in Fig. 8: it runs only workloads rare elsewhere.
func ClusterConfigs(n int, baseSeed int64) []GeneratorConfig {
	arch := builtinArchetypes()
	out := make([]GeneratorConfig, n)
	for i := 0; i < n; i++ {
		cfg := DefaultGeneratorConfig("C"+strconv.Itoa(i), baseSeed+int64(i)*7919)
		rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
		w := map[string]float64{}
		if i == 3 {
			// Special cluster: only ML-training style workloads, which
			// are rare in other clusters' mixes.
			w["mltrain"] = 1
			w["videoproc"] = 0.15
		} else {
			for _, a := range arch {
				base := 0.2 + rng.Float64()
				if a.Name == "mltrain" {
					base *= 0.15 // rare elsewhere
				}
				w[a.Name] = base
			}
		}
		cfg.ArchetypeWeights = w
		out[i] = cfg
	}
	return out
}

// jobTemplate is one recurring shuffle step: the generator's hidden
// ground truth from which both job behaviour and features derive.
type jobTemplate struct {
	arch     Archetype
	user     string
	pipeline string
	step     string
	stepIdx  int

	// Per-template multipliers (drawn once).
	sizeMul, lifeMul, readMul, writeMul, readSizeMul float64
	cacheHit                                         float64
	periodSec                                        float64 // 0 => Poisson
	meanInterSec                                     float64
	phase                                            float64

	meta Metadata

	// Running history of realized executions (feature group A).
	histTCIO, histSize, histLife, histDensity float64
	histRuns                                  int
}

// Generator produces synthetic cluster traces. Its templates live in one
// array, and their user, pipeline, step and metadata strings are cut
// from one strings.Builder, so a generator allocates per template
// population, not per template.
type Generator struct {
	cfg       GeneratorConfig
	rng       *rand.Rand
	templates []jobTemplate
	strs      strings.Builder
}

// NewGenerator builds the hidden template population for a cluster.
func NewGenerator(cfg GeneratorConfig) *Generator {
	if cfg.LoadScale <= 0 {
		cfg.LoadScale = 1
	}
	if cfg.NoiseScale <= 0 {
		cfg.NoiseScale = 1
	}
	if cfg.MinSteps <= 0 {
		cfg.MinSteps = 1
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 4
	}
	cfg.MaxSteps = max(cfg.MaxSteps, cfg.MinSteps)
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	g.buildTemplates()
	return g
}

func (g *Generator) buildTemplates() {
	arch := builtinArchetypes()
	weights := make([]float64, len(arch))
	var total float64
	for i, a := range arch {
		w := 1.0
		if g.cfg.ArchetypeWeights != nil {
			w = g.cfg.ArchetypeWeights[a.Name]
		}
		weights[i] = w
		total += w
	}
	if total <= 0 {
		for i := range weights {
			weights[i] = 1
		}
		total = float64(len(weights))
	}
	pickArch := func() Archetype {
		x := g.rng.Float64() * total
		for i, w := range weights {
			x -= w
			if x <= 0 {
				return arch[i]
			}
		}
		return arch[len(arch)-1]
	}

	// Sized for the mean template count and about 256 bytes of strings
	// each; a population past the mean grows both once or twice.
	c := g.cfg
	mean := max(c.NumUsers*(minPipes+maxPipes)*(c.MinSteps+c.MaxSteps)/4, 1)
	g.templates = make([]jobTemplate, 0, mean)
	g.strs.Grow(256 * mean)
	for u := 0; u < g.cfg.NumUsers; u++ {
		pu, pv := strconv.Itoa(u/10), strconv.Itoa(u%10) // "%02d"
		user := g.cut("user", pu, pv)
		nPipes := minPipes + g.rng.Intn(maxPipes-minPipes+1)
		for p := 0; p < nPipes; p++ {
			a := pickArch()
			pipeline := g.cut(user, "-", a.Name, "-p", pu, pv, strconv.Itoa(p/10), strconv.Itoa(p%10))
			nSteps := g.cfg.MinSteps + g.rng.Intn(g.cfg.MaxSteps-g.cfg.MinSteps+1)
			// Per-pipeline multipliers shared by all steps.
			pSize := g.logn(0, 0.5*a.SizeSigma)
			pLife := g.logn(0, 0.4*a.LifeSigma)
			for s := 0; s < nSteps; s++ {
				g.templates = append(g.templates, jobTemplate{
					arch:        a,
					user:        user,
					pipeline:    pipeline,
					step:        g.cut("s", strconv.Itoa(s)),
					stepIdx:     s,
					sizeMul:     pSize * g.logn(0, 0.5*a.SizeSigma),
					lifeMul:     pLife * g.logn(0, 0.4*a.LifeSigma),
					readMul:     g.logn(0, a.ReadFactorSigma),
					writeMul:    g.logn(0, 1.5*a.WriteAmpSigma),
					readSizeMul: g.logn(0, 0.7*a.ReadSizeSigma),
					cacheHit:    clamp01(a.CacheHitMean + (g.rng.Float64()*2-1)*a.CacheHitSpread),
					phase:       g.rng.Float64(),
				})
				t := &g.templates[len(g.templates)-1]
				if a.PeriodSec > 0 {
					t.periodSec = a.PeriodSec * g.logn(0, 0.15)
				} else {
					t.meanInterSec = a.MeanInterSec * g.logn(0, 0.3)
				}
				t.meta = g.makeMetadata(t)
			}
		}
	}
}

// cut writes the concatenation of parts to the generator's strs and
// returns it. A Builder only appends, so every string cut from it stays
// valid as it grows.
func (g *Generator) cut(parts ...string) string {
	start := g.strs.Len()
	for _, p := range parts {
		g.strs.WriteString(p)
	}
	return g.strs.String()[start:]
}

// makeMetadata builds execution-metadata strings in the style of the
// paper's Table 3 examples. The archetype name is embedded as a token,
// making metadata (group B) predictive of the TCO-savings sign — the
// paper's Fig. 9c finding.
func (g *Generator) makeMetadata(t *jobTemplate) Metadata {
	return Metadata{
		BuildTargetName: g.cut("//production/", t.arch.Name, "/", t.pipeline, ":", t.step, "_main"),
		ExecutionName:   g.cut("com.example.", t.arch.Name, ".", t.pipeline, ".launcher.Main"),
		PipelineName:    g.cut("org_", t.user, ".", t.pipeline, "-dims.prod.", t.arch.Name),
		StepName:        g.cut(t.step, "-open-shuffle", strconv.Itoa(t.stepIdx)),
		UserName:        g.cut("GroupByKey-", strconv.Itoa(t.stepIdx*11+3)),
	}
}

func (g *Generator) logn(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.rng.NormFloat64())
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// diurnalFactor modulates arrival intensity by hour-of-day.
func diurnalFactor(amp, atSec float64) float64 {
	hour := math.Mod(atSec/3600, 24)
	return 1 + amp*math.Sin(2*math.Pi*(hour-9)/24)
}

// A block of jobBlock 320-byte Jobs is exactly ten 8 KiB pages, where a
// smaller one rounds up to a size class; a job ID pads seq to idDigits.
const jobBlock, idDigits = 256, 6

// Generate produces the full trace for the configured window, sorted by
// arrival time. Generation is deterministic given the config. The jobs
// live in arrival-ordered blocks of 256 and each block's IDs in one
// string of its own, so a kept *Job keeps its block and its block's IDs
// alive, and a kept arrival range only its blocks'.
func (g *Generator) Generate() *Trace {
	// Instantiate in template order, the order the RNG draws in: job seq
	// is staged[seq/jobBlock][seq%jobBlock], and its ID is made from seq.
	var staged [][]Job
	var arrivals []float64 // reused template to template
	n := 0
	for i := range g.templates {
		t := &g.templates[i]
		arrivals = g.arrivalTimes(t, arrivals[:0])
		for _, at := range arrivals {
			if n%jobBlock == 0 {
				staged = append(staged, make([]Job, jobBlock))
			}
			g.instantiate(&staged[n/jobBlock][n%jobBlock], t, at)
			n++
		}
	}
	// Sort (arrival, seq) pairs by byArrival's (ArrivalSec, ID), spelling
	// out the two IDs only on a tie. Generated IDs are unique, so this is
	// a total order and the unstable sort gives Sort's order without its
	// merge passes.
	cluster := g.cfg.Cluster
	order := make([]arrival, n)
	for seq := range order {
		order[seq] = arrival{staged[seq/jobBlock][seq%jobBlock].ArrivalSec, int32(seq)}
	}
	slices.SortFunc(order, func(a, b arrival) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		var ba, bb [64]byte
		return bytes.Compare(appendJobID(ba[:0], cluster, int(a.seq)), appendJobID(bb[:0], cluster, int(b.seq)))
	})
	// Copy into arrival-ordered blocks, writing each block's IDs into one
	// buffer and then into the block's own string.
	tr := &Trace{Cluster: cluster, Jobs: make([]*Job, n)}
	ids := make([]byte, 0, jobBlock*(len(cluster)+len("-j")+idDigits))
	var ends [jobBlock]int
	for lo := 0; lo < n; lo += jobBlock {
		keys := order[lo:min(lo+jobBlock, n)]
		blk := make([]Job, len(keys))
		ids = ids[:0]
		for i, a := range keys {
			blk[i] = staged[a.seq/jobBlock][a.seq%jobBlock]
			ids = appendJobID(ids, cluster, int(a.seq))
			ends[i] = len(ids)
		}
		s, start := string(ids), 0
		for i := range blk {
			blk[i].ID, start = s[start:ends[i]], ends[i]
			tr.Jobs[lo+i] = &blk[i]
		}
	}
	return tr
}

// arrival is job seq's sort key in Generate.
type arrival struct {
	at  float64
	seq int32
}

// appendJobID appends the ID of job seq, "<cluster>-j<seq>" with seq
// zero-padded to idDigits: what fmt's "%s-j%06d" writes.
func appendJobID(b []byte, cluster string, seq int) []byte {
	b = append(append(b, cluster...), "-j"...)
	for w, p := 1, 10; w < idDigits; w, p = w+1, p*10 {
		if seq < p {
			b = append(b, '0')
		}
	}
	return strconv.AppendInt(b, int64(seq), 10)
}

// arrivalTimes appends template t's arrival times in the window to out.
func (g *Generator) arrivalTimes(t *jobTemplate, out []float64) []float64 {
	dur := g.cfg.DurationSec
	if t.periodSec > 0 {
		period := t.periodSec / g.cfg.LoadScale
		at := t.phase * period
		for at < dur {
			jit := period * 0.05 * g.rng.NormFloat64()
			a := at + jit
			if a >= 0 && a < dur {
				out = append(out, a)
			}
			at += period
		}
		return out
	}
	// Non-homogeneous Poisson via thinning against the diurnal profile.
	mean := t.meanInterSec / g.cfg.LoadScale
	at := g.rng.ExpFloat64() * mean
	for at < dur {
		f := diurnalFactor(t.arch.DiurnalAmp, at)
		if g.rng.Float64() < f/(1+t.arch.DiurnalAmp) {
			out = append(out, at)
		}
		at += g.rng.ExpFloat64() * mean
	}
	return out
}

// instantiate realizes one execution of a template at the given arrival
// time into j, ID aside, and updates the template's running history.
func (g *Generator) instantiate(j *Job, t *jobTemplate, at float64) {
	ns := g.cfg.NoiseScale
	a := t.arch
	size := math.Exp(a.SizeMu) * t.sizeMul * g.logn(0, 0.35*a.SizeSigma*ns)
	life := math.Exp(a.LifeMu) * t.lifeMul * g.logn(0, 0.3*a.LifeSigma*ns)
	if life < 10 {
		life = 10
	}
	readFactor := math.Exp(a.ReadFactorMu) * t.readMul * g.logn(0, a.ReadFactorSigma*0.5*ns)
	writeAmp := math.Exp(a.WriteAmpMu) * t.writeMul * g.logn(0, a.WriteAmpSigma*0.5*ns)
	if writeAmp < 1 {
		writeAmp = 1
	}
	readSize := math.Exp(a.ReadSizeMu) * t.readSizeMul * g.logn(0, 0.3*a.ReadSizeSigma*ns)
	if readSize < 4096 {
		readSize = 4096
	}
	cacheHit := clamp01(t.cacheHit + 0.05*ns*g.rng.NormFloat64())

	readBytes := size * readFactor
	writeBytes := size * writeAmp

	*j = Job{
		Cluster:          g.cfg.Cluster,
		User:             t.user,
		Pipeline:         t.pipeline,
		Step:             t.step,
		ArrivalSec:       at,
		LifetimeSec:      life,
		SizeBytes:        size,
		ReadBytes:        readBytes,
		WriteBytes:       writeBytes,
		AvgReadSizeBytes: readSize,
		CacheHitFrac:     cacheHit,
		Meta:             t.meta,
		Resources:        g.makeResources(t, size, writeBytes),
	}

	// Feature group A: history of previously completed executions of
	// this template with observation noise. First runs see zeros (no
	// history yet), matching the cold-start case for new pipelines.
	if t.histRuns > 0 {
		n := float64(t.histRuns)
		obs := func(v float64) float64 { return v / n * g.logn(0, 0.1*ns) }
		j.History = History{
			AvgTCIO:      obs(t.histTCIO),
			AvgSizeBytes: obs(t.histSize),
			AvgLifetime:  obs(t.histLife),
			AvgIODensity: obs(t.histDensity),
			NumRuns:      t.histRuns,
		}
	}

	// Update running history with this execution's realized values.
	// The TCIO proxy recorded here mirrors the cost model's computation:
	// effective HDD operations per second of lifetime.
	effReadOps := readBytes / readSize * (1 - cacheHit)
	effWriteOps := writeBytes / (1 << 20)
	tcio := (effReadOps + effWriteOps) / life / 150.0
	t.histTCIO += tcio
	t.histSize += size
	t.histLife += life
	t.histDensity += (readBytes + writeBytes) / size
	t.histRuns++
}

func (g *Generator) makeResources(t *jobTemplate, size, writeBytes float64) Resources {
	// Resources are scheduler-assigned before execution and correlate
	// with the job's expected scale (group C features).
	workers := int(math.Ceil(math.Pow(size/(256*1<<20), 0.6)))
	if workers < 1 {
		workers = 1
	}
	workers += g.rng.Intn(3)
	threads := 4 + g.rng.Intn(12)
	buckets := workers * (2 + g.rng.Intn(6))
	initialBuckets := buckets
	if g.rng.Float64() < 0.3 {
		initialBuckets = buckets / 2
		if initialBuckets < 1 {
			initialBuckets = 1
		}
	}
	shards := workers * threads
	records := int64(writeBytes / (256 + float64(g.rng.Intn(3800))))
	return Resources{
		BucketSizingInitialNumStripes: 1 + g.rng.Intn(8),
		BucketSizingNumShards:         shards,
		BucketSizingNumWorkerThreads:  threads,
		BucketSizingNumWorkers:        workers,
		InitialNumBuckets:             initialBuckets,
		NumBuckets:                    buckets,
		RecordsWritten:                records,
		RequestedNumShards:            shards + g.rng.Intn(shards+1),
	}
}
