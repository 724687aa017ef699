package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/space"
)

// AblationPoint is one measurement of a design-choice sweep.
type AblationPoint struct {
	Study   string  // which knob was swept
	Param   float64 // the knob value
	Network float64 // improvement % under network multicast
	Extra   float64 // study-specific second value (see each runner)
}

// RunThresholdAblation sweeps the Fig 5 multicast threshold: below the
// threshold fraction of interested group members, deliver by unicast
// instead. Extra carries the app-level improvement. The paper defers the
// quantitative study of this optimisation to its companion paper [16];
// this runner provides it on our testbed.
func RunThresholdAblation(env *StockEnv, k int, thresholds []float64) ([]AblationPoint, error) {
	if len(thresholds) == 0 {
		thresholds = []float64{0, 0.02, 0.05, 0.1, 0.2, 0.4}
	}
	spec := AlgorithmSpec{Alg: &cluster.KMeans{Variant: cluster.Forgy}, Budget: 3000}
	var out []AblationPoint
	for _, th := range thresholds {
		costs, _, err := env.runGrid(spec, k, core.Config{Threshold: th})
		if err != nil {
			return nil, fmt.Errorf("experiments: threshold %v: %w", th, err)
		}
		out = append(out, AblationPoint{
			Study:   "threshold",
			Param:   th,
			Network: sim.Improvement(env.Baselines, costs.Network),
			Extra:   sim.Improvement(env.Baselines, costs.AppLevel),
		})
	}
	return out, nil
}

// RunOutlierAblation sweeps the outlier-removal fraction (the paper's §4.1
// future-work suggestion) at a deliberately oversized cell budget, where
// Figures 10–11 show quality degrading. Extra carries the number of cells
// removed.
func RunOutlierAblation(env *StockEnv, k, budget int, fracs []float64) ([]AblationPoint, error) {
	if len(fracs) == 0 {
		fracs = []float64{0, 0.02, 0.05, 0.1, 0.2}
	}
	if budget == 0 {
		budget = 6000
	}
	base, err := cluster.BuildInput(env.World, env.Grid, env.Train, budget)
	if err != nil {
		return nil, err
	}
	alg := &cluster.KMeans{Variant: cluster.Forgy}
	var out []AblationPoint
	for _, frac := range fracs {
		in, removed, err := cluster.RemoveOutliers(base, frac)
		if err != nil {
			return nil, fmt.Errorf("experiments: outlier frac %v: %w", frac, err)
		}
		res, _, err := clusterGrid(in, alg, k)
		if err != nil {
			return nil, err
		}
		costs, err := replayGrid(env.World, env.Grid, res, env.Model, env.Eval, core.Config{})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{
			Study:   "outlier-removal",
			Param:   frac,
			Network: sim.Improvement(env.Baselines, costs.Network),
			Extra:   float64(removed),
		})
	}
	return out, nil
}

// RunLastMileAblation sweeps the last-mile cost factor (the paper's §6
// extension 2): the same workload on networks whose client access links
// are 1×, 2×, … more expensive. Extra carries the per-event unicast
// baseline on that network, showing how the penalty inflates unicast and
// widens the clustering opportunity.
func RunLastMileAblation(base StockEnvConfig, k int, factors []float64) ([]AblationPoint, error) {
	if len(factors) == 0 {
		factors = []float64{1, 2, 4, 8}
	}
	var out []AblationPoint
	for _, f := range factors {
		cfg := base
		cfg.setDefaults()
		cfg.Topology.LastMileFactor = f
		env, err := NewStockEnv(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: last-mile %v: %w", f, err)
		}
		spec := AlgorithmSpec{Alg: &cluster.KMeans{Variant: cluster.Forgy}, Budget: 3000}
		costs, _, err := env.runGrid(spec, k, core.Config{})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{
			Study:   "last-mile",
			Param:   f,
			Network: sim.Improvement(env.Baselines, costs.Network),
			Extra:   env.Baselines.Unicast,
		})
	}
	return out, nil
}

// RunProbAblation compares the two probability estimators feeding the
// clustering framework: empirical (training samples of growing size,
// Param = sample size) versus the closed-form analytic model (Param = 0,
// emitted last). Extra carries the clustering's expected waste under the
// assignment, evaluated on the analytic probabilities as ground truth.
func RunProbAblation(env *StockEnv, k, budget int, sampleSizes []int) ([]AblationPoint, error) {
	if len(sampleSizes) == 0 {
		sampleSizes = []int{125, 250, 500, 1000, 2000, 4000}
	}
	if budget == 0 {
		budget = 3000
	}
	probOf := func(r space.Rect) float64 {
		p, ok := env.World.AnalyticCellProb(r)
		if !ok {
			return 0
		}
		return p
	}
	alg := &cluster.KMeans{Variant: cluster.Forgy}
	evalOne := func(in *cluster.Input, param float64) (AblationPoint, error) {
		assign, err := alg.Cluster(in, k)
		if err != nil {
			return AblationPoint{}, err
		}
		res, err := cluster.BuildResult(in, assign)
		if err != nil {
			return AblationPoint{}, err
		}
		costs, err := replayGrid(env.World, env.Grid, res, env.Model, env.Eval, core.Config{})
		if err != nil {
			return AblationPoint{}, err
		}
		waste, err := cluster.ExpectedWaste(in, assign)
		if err != nil {
			return AblationPoint{}, err
		}
		return AblationPoint{
			Study:   "probability-estimator",
			Param:   param,
			Network: sim.Improvement(env.Baselines, costs.Network),
			Extra:   waste,
		}, nil
	}

	var out []AblationPoint
	for _, n := range sampleSizes {
		train := env.World.Events(n, env.Config.Seed+7000+int64(n))
		in, err := cluster.BuildInput(env.World, env.Grid, train, budget)
		if err != nil {
			return nil, fmt.Errorf("experiments: prob ablation n=%d: %w", n, err)
		}
		pt, err := evalOne(in, float64(n))
		if err != nil {
			return nil, fmt.Errorf("experiments: prob ablation n=%d: %w", n, err)
		}
		out = append(out, pt)
	}
	in, err := cluster.BuildInputAnalytic(env.World, env.Grid, probOf, budget)
	if err != nil {
		return nil, fmt.Errorf("experiments: prob ablation analytic: %w", err)
	}
	pt, err := evalOne(in, 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: prob ablation analytic: %w", err)
	}
	out = append(out, pt)
	return out, nil
}

// RunDynamicMethodAblation compares the static Fig 5 routing (always
// multicast a routed group) against the §1 dynamic distribution-method
// decision (per-event cheapest of group multicast / unicast / broadcast),
// across group counts: one clustering per K, replayed once under each
// rule. Param is K; Network is the static improvement and Extra the
// dynamic improvement.
func RunDynamicMethodAblation(env *StockEnv, ks []int) ([]AblationPoint, error) {
	if len(ks) == 0 {
		ks = []int{10, 25, 50, 100}
	}
	in, err := cluster.BuildInput(env.World, env.Grid, env.Train, 3000)
	if err != nil {
		return nil, fmt.Errorf("experiments: dynamic-method: %w", err)
	}
	alg := &cluster.KMeans{Variant: cluster.Forgy}
	var out []AblationPoint
	for _, k := range ks {
		res, _, err := clusterGrid(in, alg, k)
		if err != nil {
			return nil, fmt.Errorf("experiments: dynamic-method k=%d: %w", k, err)
		}
		var impr [2]float64
		for mode := range impr {
			costs, err := replayGrid(env.World, env.Grid, res, env.Model, env.Eval, core.Config{DynamicMethod: mode == 1})
			if err != nil {
				return nil, fmt.Errorf("experiments: dynamic-method k=%d: %w", k, err)
			}
			impr[mode] = sim.Improvement(env.Baselines, costs.Network)
		}
		out = append(out, AblationPoint{
			Study:   "dynamic-method",
			Param:   float64(k),
			Network: impr[0],
			Extra:   impr[1],
		})
	}
	return out, nil
}

// RenderAblation writes ablation points as an aligned table. The meaning
// of the extra column depends on the study.
func RenderAblation(w io.Writer, title, extraLabel string, pts []AblationPoint) error {
	fmt.Fprintf(w, "%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "param\timprovement %%\t%s\n", extraLabel)
	for _, p := range pts {
		fmt.Fprintf(tw, "%g\t%.1f\t%.1f\n", p.Param, p.Network, p.Extra)
	}
	return tw.Flush()
}

// RenderAblationCSV writes ablation points as CSV.
func RenderAblationCSV(w io.Writer, pts []AblationPoint) error {
	if _, err := fmt.Fprintln(w, "study,param,network_improvement,extra"); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "%s,%g,%.3f,%.3f\n", p.Study, p.Param, p.Network, p.Extra); err != nil {
			return err
		}
	}
	return nil
}
