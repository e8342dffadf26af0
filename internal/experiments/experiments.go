// Package experiments contains one runner per table and figure of the
// paper's evaluation (Section 5 and Appendix C), built on the shared
// substrates: the trace generator, cost model, simulator, oracle,
// policies and the prototype deployment stack. Each runner returns a
// typed result that renders a plain-text report; Runners lists them for
// cmd/experiments and for the golden tests that pin every render.
package experiments

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gbdt"
	"repro/internal/oracle"
	"repro/internal/par"
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

	// The lifetime-prediction baseline, trained on Train once.
	mlOnce sync.Once
	ml     *policy.MLBaseline
	mlErr  error
}

// BuildEnv generates cluster idx (0-9 follow the paper's uneven
// distributions; idx 3 is the pathological mltrain-only cluster) and
// splits it into train/test halves.
func BuildEnv(idx int, opts Options) *Env {
	cfgs := trace.ClusterConfigs(10, opts.Seed)
	cfg := cfgs[idx%len(cfgs)]
	cfg.DurationSec = opts.Days * 24 * 3600
	cfg.NumUsers = opts.Users
	return NewEnv(cfg)
}

// NewEnv generates the cluster cfg describes, splits it into train/test
// halves at half its duration and prices the test half's peak usage.
func NewEnv(cfg trace.GeneratorConfig) *Env {
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
	return core.TrainCategoryModel(jobs, cm, opts.trainOptions())
}

// trainOptions is the category-model training configuration o scales.
func (o Options) trainOptions() core.TrainOptions {
	topts := core.DefaultTrainOptions()
	topts.NumCategories = o.NumCategories
	topts.GBDT.NumRounds = o.GBDTRounds
	topts.GBDT.Seed = o.Seed
	return topts
}

// mlBaselineTTL is the TTL for the lifetime-prediction baseline
// (Section 3.4); 2 hours covers the hot shuffles in the generated mix.
const mlBaselineTTL = 2 * 3600

// mlBaseline returns the lifetime-prediction baseline for one replay. The
// models are trained on the first call and shared; each replay gets its
// own Fork, so replays may run side by side.
func (e *Env) mlBaseline() (*policy.MLBaseline, error) {
	e.mlOnce.Do(func() {
		cfg := gbdt.DefaultConfig()
		cfg.NumRounds = 15
		e.ml, e.mlErr = policy.TrainMLBaseline(e.Train.Jobs, mlBaselineTTL, cfg)
	})
	if e.mlErr != nil {
		return nil, e.mlErr
	}
	return e.ml.Fork(), nil
}

// SuiteConfig selects what a policy-suite run replays.
type SuiteConfig struct {
	// Methods names the methods to evaluate (policy.Name* values): a
	// figure replays only what it renders.
	Methods []string
	// Model is required for AdaptiveRanking and AdaptiveTrue, and sets
	// the category count of every Algorithm 1 method.
	Model *core.CategoryModel
	// Categories, when set, is Model.Categories(Env.Test.Jobs): a sweep
	// that runs the suite at many quotas or controller settings (Fig7,
	// Fig11, Fig15) classifies the test half once and hands the result
	// to every run. Nil classifies in the run.
	Categories  []int32
	AdaptiveCfg *core.AdaptiveConfig // nil = default
}

// adaptive returns the Algorithm 1 settings of the run.
func (c SuiteConfig) adaptive() core.AdaptiveConfig {
	if c.AdaptiveCfg != nil {
		return *c.AdaptiveCfg
	}
	return core.DefaultAdaptiveConfig(c.Model.NumCategories())
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

// baselineMethods are the non-BYOM baselines a figure compares against.
var baselineMethods = []string{policy.NameFirstFit, policy.NameHeuristic, policy.NameMLBaseline}

// BestBaselineTCO returns the best TCO savings among the non-BYOM
// baselines present in the result.
func (s SuiteResult) BestBaselineTCO() float64 {
	best := 0.0
	for _, name := range baselineMethods {
		if v := s.TCOPercent(name); v > best {
			best = v
		}
	}
	return best
}

// RunSuite evaluates cfg.Methods on the environment's test half at the
// given quota (bytes). Each method replays independently, so the set
// run never moves a method's number.
func (e *Env) RunSuite(quota float64, cfg SuiteConfig) (SuiteResult, error) {
	var policies []sim.Policy
	var oracles []string
	for _, m := range cfg.Methods {
		var p sim.Policy
		var err error
		switch m {
		case policy.NameFirstFit:
			p = policy.FirstFit{}
		case policy.NameHeuristic:
			heur := policy.NewHeuristic(e.Cost)
			heur.Prime(e.Train.Jobs)
			p = heur
		case policy.NameAdaptiveRanking:
			var ranking *policy.AdaptiveRanking
			if ranking, err = policy.NewAdaptiveRanking(cfg.Model, e.Cost, cfg.adaptive()); err == nil {
				p = ranking.WithCategories(e.Test.Jobs, cfg.Categories)
			}
		case policy.NameAdaptiveHash:
			p, err = policy.NewAdaptiveHash(e.Cost, cfg.adaptive())
		case policy.NameAdaptiveTrue:
			p, err = policy.NewAdaptiveTrue(cfg.Model.Labeler, e.Cost, cfg.adaptive())
		case policy.NameMLBaseline:
			p, err = e.mlBaseline()
		case policy.NameOracleTCO, policy.NameOracleTCIO:
			oracles = append(oracles, m)
			continue
		default:
			return nil, fmt.Errorf("experiments: unknown method %q", m)
		}
		if err != nil {
			return nil, err
		}
		policies = append(policies, p)
	}

	results, err := sim.RunAll(e.Test, policies, e.Cost, sim.Config{SSDQuota: quota})
	if err != nil {
		return nil, err
	}
	if len(oracles) > 0 {
		bounds, err := e.OracleBounds(quota)
		if err != nil {
			return nil, err
		}
		for _, name := range oracles {
			results[name] = bounds[name]
		}
	}
	return results, nil
}

// rankingCurve replays AdaptiveRanking under cfg (Methods aside) at each
// fraction of the test half's peak usage and returns its TCO savings
// percents. The test half is classified once, unless cfg hands its
// categories in.
func (e *Env) rankingCurve(fracs []float64, cfg SuiteConfig) ([]float64, error) {
	cfg.Methods = []string{policy.NameAdaptiveRanking}
	if cfg.Categories == nil {
		cfg.Categories = cfg.Model.Categories(e.Test.Jobs, nil)
	}
	curve := make([]float64, len(fracs))
	err := par.Each(len(fracs), 0, func(i int) error {
		suite, err := e.RunSuite(e.PeakUsage*fracs[i], cfg)
		if err != nil {
			return fmt.Errorf("quota %.3f: %w", fracs[i], err)
		}
		curve[i] = suite.TCOPercent(policy.NameAdaptiveRanking)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return curve, nil
}

// OracleBounds computes the "best theoretical bound" curves of Fig. 7
// analytically: the exact fractional clairvoyant placement (the
// oracle's LP optimum) for each objective, evaluated on both metrics.
// No simulation is involved — these are the bounds the paper plots,
// not deployable policies. Each is optimal for its own objective, so
// neither can beat the other on it.
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
	return out, nil
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

// seriesTable renders a table with one column per quota fraction and one
// row per named series, in names order.
func seriesTable(w io.Writer, title, first string, quotas []float64, names []string, series map[string][]float64) {
	header := []string{first}
	for _, q := range quotas {
		header = append(header, fmt.Sprintf("%.1f%%", q*100))
	}
	rows := make([][]string, len(names))
	for i, name := range names {
		rows[i] = []string{name}
		for _, v := range series[name] {
			rows[i] = append(rows[i], fmt.Sprintf("%.2f", v))
		}
	}
	Table(w, title, header, rows)
}

// quotaRows returns one table row per quota fraction: the quota as a
// percentage in format qfmt, then each curve's value there.
func quotaRows(qfmt string, quotas []float64, curves ...[]float64) [][]string {
	rows := make([][]string, len(quotas))
	for i, q := range quotas {
		rows[i] = []string{fmt.Sprintf(qfmt, q*100)}
		for _, c := range curves {
			rows[i] = append(rows[i], fmt.Sprintf("%.3f", c[i]))
		}
	}
	return rows
}
