// Package experiments contains one runner per table and figure of the
// paper's evaluation (Section 5 and Appendix C), built on the shared
// substrates: the trace generator, cost model, simulator, oracle,
// policies and the prototype deployment stack. Each runner returns a
// typed result and can render a plain-text report; cmd/experiments and
// the repository-level benchmarks call the same entry points.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gbdt"
	"repro/internal/oracle"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Options scales experiments between quick (tests, benchmarks) and full
// (paper-style) runs.
type Options struct {
	// Seed drives all generators.
	Seed int64
	// Days is the total trace length; the first half trains, the
	// second half evaluates (the paper uses a contiguous two-week
	// span split into one week each).
	Days float64
	// Users is the number of users per generated cluster.
	Users int
	// GBDTRounds bounds boosting rounds for trained models.
	GBDTRounds int
	// NumCategories is N for the category models.
	NumCategories int
}

// DefaultOptions returns paper-style settings scaled to commodity
// hardware: 8 simulated days (4 train + 4 test) per cluster.
func DefaultOptions() Options {
	return Options{
		Seed:          1,
		Days:          8,
		Users:         12,
		GBDTRounds:    30,
		NumCategories: 15,
	}
}

// QuickOptions returns a configuration small enough for unit tests.
func QuickOptions() Options {
	return Options{
		Seed:          1,
		Days:          4,
		Users:         8,
		GBDTRounds:    12,
		NumCategories: 15,
	}
}

// Env bundles one cluster's evaluation environment.
type Env struct {
	Cluster   string
	Train     *trace.Trace
	Test      *trace.Trace
	Cost      *cost.Model
	PeakUsage float64 // peak SSD usage of the test trace
}

// BuildEnv generates cluster idx (0-9 follow the paper's uneven
// distributions; idx 3 is the pathological mltrain-only cluster) and
// splits it into train/test halves.
func BuildEnv(idx int, opts Options) *Env {
	cfgs := trace.ClusterConfigs(10, opts.Seed)
	cfg := cfgs[idx%len(cfgs)]
	cfg.DurationSec = opts.Days * 24 * 3600
	cfg.NumUsers = opts.Users
	full := trace.NewGenerator(cfg).Generate()
	train, test := full.SplitAt(cfg.DurationSec / 2)
	return &Env{
		Cluster:   cfg.Cluster,
		Train:     train,
		Test:      test,
		Cost:      cost.Default(),
		PeakUsage: test.PeakSSDUsage(),
	}
}

// TrainModel trains a category model on the environment's training
// half with the option-scaled GBDT config.
func (e *Env) TrainModel(opts Options) (*core.CategoryModel, error) {
	return TrainModelOn(e.Train.Jobs, e.Cost, opts)
}

// TrainModelOn trains a category model on an explicit job set.
func TrainModelOn(jobs []*trace.Job, cm *cost.Model, opts Options) (*core.CategoryModel, error) {
	topts := core.DefaultTrainOptions()
	topts.NumCategories = opts.NumCategories
	topts.GBDT.NumRounds = opts.GBDTRounds
	topts.GBDT.Seed = opts.Seed
	return core.TrainCategoryModel(jobs, cm, topts)
}

// mlBaselineTTL is the TTL for the lifetime-prediction baseline
// (Section 3.4); 2 hours covers the hot shuffles in the generated mix.
const mlBaselineTTL = 2 * 3600

// SuiteConfig selects which methods a policy-suite run includes.
type SuiteConfig struct {
	Model *core.CategoryModel // required for AdaptiveRanking
	// Categories, when set, is Model.Categories(Env.Test.Jobs): a sweep
	// that runs the suite at many quotas or controller settings (Fig7,
	// Fig11, Fig15) classifies the test half once and hands the result
	// to every run. Nil classifies in the run.
	Categories  []int32
	WithOracles bool
	WithMLBase  bool
	WithTrueCat bool
	AdaptiveCfg *core.AdaptiveConfig // nil = default
}

// SuiteResult maps method name to its simulation result.
type SuiteResult map[string]*sim.Result

// TCOPercent returns the method's TCO savings percent (0 for missing).
func (s SuiteResult) TCOPercent(name string) float64 {
	if r, ok := s[name]; ok {
		return r.TCOSavingsPercent()
	}
	return 0
}

// TCIOPercent returns the method's TCIO savings percent.
func (s SuiteResult) TCIOPercent(name string) float64 {
	if r, ok := s[name]; ok {
		return r.TCIOSavingsPercent()
	}
	return 0
}

// BestBaselineTCO returns the best TCO savings among the non-BYOM
// baselines present in the result.
func (s SuiteResult) BestBaselineTCO() float64 {
	best := 0.0
	for _, name := range []string{policy.NameFirstFit, policy.NameHeuristic, policy.NameMLBaseline} {
		if v := s.TCOPercent(name); v > best {
			best = v
		}
	}
	return best
}

// RunSuite evaluates the configured methods on the environment's test
// half at the given quota (bytes).
func (e *Env) RunSuite(quota float64, cfg SuiteConfig) (SuiteResult, error) {
	acfg := core.DefaultAdaptiveConfig(cfg.Model.NumCategories())
	if cfg.AdaptiveCfg != nil {
		acfg = *cfg.AdaptiveCfg
	}

	var policies []sim.Policy
	policies = append(policies, policy.FirstFit{})

	heur := policy.NewHeuristic(e.Cost)
	heur.Prime(e.Train.Jobs)
	policies = append(policies, heur)

	ranking, err := policy.NewAdaptiveRanking(cfg.Model, e.Cost, acfg)
	if err != nil {
		return nil, err
	}
	policies = append(policies, ranking.WithCategories(e.Test.Jobs, cfg.Categories))

	hash, err := policy.NewAdaptiveHash(e.Cost, acfg)
	if err != nil {
		return nil, err
	}
	policies = append(policies, hash)

	if cfg.WithMLBase {
		mlCfg := gbdt.DefaultConfig()
		mlCfg.NumRounds = 15
		ml, err := policy.TrainMLBaseline(e.Train.Jobs, mlBaselineTTL, mlCfg)
		if err != nil {
			return nil, err
		}
		policies = append(policies, ml)
	}
	if cfg.WithTrueCat {
		trueCat, err := policy.NewAdaptiveTrue(cfg.Model.Labeler, e.Cost, acfg)
		if err != nil {
			return nil, err
		}
		policies = append(policies, trueCat)
	}

	results, err := sim.RunAll(e.Test, policies, e.Cost, sim.Config{SSDQuota: quota})
	if err != nil {
		return nil, err
	}

	if cfg.WithOracles {
		bounds, err := e.OracleBounds(quota)
		if err != nil {
			return nil, err
		}
		for name, r := range bounds {
			results[name] = r
		}
	}
	return results, nil
}

// OracleBounds computes the "best theoretical bound" curves of Fig. 7
// analytically: the fractional clairvoyant placement optimizing each
// objective, evaluated on both metrics. No simulation is involved —
// these are the bounds the paper plots, not deployable policies. The
// TCO bound is additionally clamped to dominate the TCIO-optimal
// placement's TCO (both are clairvoyant, so the bound is their max;
// the greedy solver is approximate and either may come out ahead).
func (e *Env) OracleBounds(quota float64) (map[string]*sim.Result, error) {
	totalTCO := e.Cost.TotalTCOHDD(e.Test.Jobs)
	totalTCIO := e.Cost.TotalTCIO(e.Test.Jobs)
	out := map[string]*sim.Result{}
	for _, obj := range []oracle.Objective{oracle.TCO, oracle.TCIO} {
		ocfg := oracle.DefaultConfig()
		ocfg.Objective = obj
		ocfg.Fractional = true
		sol, err := oracle.Solve(e.Test.Jobs, quota, e.Cost, ocfg)
		if err != nil {
			return nil, err
		}
		name := policy.NameOracleTCO
		if obj == oracle.TCIO {
			name = policy.NameOracleTCIO
		}
		var tcoSaved, tcioSaved float64
		for _, j := range e.Test.Jobs {
			f := sol.Frac[j.ID]
			if f <= 0 {
				continue
			}
			tcoSaved += f * e.Cost.Savings(j)
			tcioSaved += f * e.Cost.TCIO(j)
		}
		out[name] = &sim.Result{
			PolicyName:  name,
			SSDQuota:    quota,
			TotalTCOHDD: totalTCO,
			TotalTCIO:   totalTCIO,
			TCOSaved:    tcoSaved,
			TCIOSaved:   tcioSaved,
		}
	}
	if out[policy.NameOracleTCIO].TCOSaved > out[policy.NameOracleTCO].TCOSaved {
		out[policy.NameOracleTCO].TCOSaved = out[policy.NameOracleTCIO].TCOSaved
	}
	if out[policy.NameOracleTCO].TCIOSaved > out[policy.NameOracleTCIO].TCIOSaved {
		out[policy.NameOracleTCIO].TCIOSaved = out[policy.NameOracleTCO].TCIOSaved
	}
	return out, nil
}

// RunRankingWithTrace runs only AdaptiveRanking at the quota with
// controller tracing enabled and returns the result plus the ACT/
// spillover time series (Fig. 16).
func (e *Env) RunRankingWithTrace(quota float64, model *core.CategoryModel) (*sim.Result, []core.ACTPoint, error) {
	acfg := core.DefaultAdaptiveConfig(model.NumCategories())
	acfg.RecordTrace = true
	ranking, err := policy.NewAdaptiveRanking(model, e.Cost, acfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := sim.Run(e.Test, ranking, e.Cost, sim.Config{SSDQuota: quota})
	if err != nil {
		return nil, nil, err
	}
	return res, ranking.ACTTrace(), nil
}

// QuotaFractions is the standard sweep used by Fig. 7-style plots.
var QuotaFractions = []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0}

// Table renders rows of labeled values as a fixed-width text table.
func Table(w io.Writer, title string, header []string, rows [][]string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	printRow(header)
	for _, row := range rows {
		printRow(row)
	}
}

// sortedKeys returns map keys in sorted order (deterministic output).
func sortedKeys(m map[string]*sim.Result) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
