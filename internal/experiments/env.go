// Package experiments reproduces every table and figure of the paper's
// evaluation: Tables 1–2 (§3 baseline cost comparison), the §5.2 absolute
// baseline, and Figures 7–11 (clustering algorithm comparisons on the §5.1
// stock workload). Each runner returns typed rows/series and can render
// itself as an ASCII table or CSV for the pubsub-bench CLI.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/matching"
	"repro/internal/multicast"
	"repro/internal/noloss"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/workload"
)

// StockEnvConfig parameterises the shared §5.1 environment.
type StockEnvConfig struct {
	Topology    topology.Config // defaults to topology.Eval600
	NumSubs     int             // defaults to 1000
	PubModes    int             // defaults to 1
	TrainEvents int             // defaults to 2000
	EvalEvents  int             // defaults to 500
	Seed        int64
}

func (c *StockEnvConfig) setDefaults() {
	zero := topology.Config{}
	if c.Topology == zero {
		c.Topology = topology.Eval600
	}
	if c.NumSubs == 0 {
		c.NumSubs = 1000
	}
	if c.PubModes == 0 {
		c.PubModes = 1
	}
	if c.TrainEvents == 0 {
		c.TrainEvents = 2000
	}
	if c.EvalEvents == 0 {
		c.EvalEvents = 500
	}
}

// TopologyOrDefault resolves the configured topology (Eval600 when unset).
func (c StockEnvConfig) TopologyOrDefault() topology.Config {
	c.setDefaults()
	return c.Topology
}

// StockEnv is a fully constructed §5.1 experiment environment shared by the
// figure runners.
type StockEnv struct {
	Config    StockEnvConfig
	World     *workload.World
	Grid      *space.Grid
	Model     *multicast.Model
	Matcher   matching.SubscriptionMatcher
	Train     []workload.Event
	Eval      []workload.Event
	Baselines sim.Baselines
}

// NewStockEnv builds the environment: topology, workload, matcher, cost
// model and baseline measurements.
func NewStockEnv(cfg StockEnvConfig) (*StockEnv, error) {
	cfg.setDefaults()
	topo := cfg.Topology
	topo.Seed = cfg.Seed
	g, err := topology.Generate(topo)
	if err != nil {
		return nil, fmt.Errorf("experiments: topology: %w", err)
	}
	w, err := workload.NewStockWorld(g, workload.StockConfig{
		NumSubscriptions: cfg.NumSubs,
		BlockSplit:       blockSplit(g.NumBlocks()),
		NameMeans:        nameMeans(g.NumBlocks()),
		PubModes:         cfg.PubModes,
		Seed:             cfg.Seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: workload: %w", err)
	}
	grid, err := space.NewGrid(w.Axes)
	if err != nil {
		return nil, fmt.Errorf("experiments: grid: %w", err)
	}
	m, err := matching.NewRTree(w)
	if err != nil {
		return nil, fmt.Errorf("experiments: matcher: %w", err)
	}
	env := &StockEnv{
		Config:  cfg,
		World:   w,
		Grid:    grid,
		Model:   multicast.NewModel(g),
		Matcher: m,
		Train:   w.Events(cfg.TrainEvents, cfg.Seed+2),
		Eval:    w.Events(cfg.EvalEvents, cfg.Seed+3),
	}
	env.Baselines, err = sim.MeasureBaselines(env.Model, w, m, env.Eval)
	if err != nil {
		return nil, fmt.Errorf("experiments: baselines: %w", err)
	}
	return env, nil
}

// blockSplit returns the paper's {0.4, 0.3, 0.3} when there are three
// blocks, an even split otherwise.
func blockSplit(n int) []float64 {
	if n == 3 {
		return []float64{0.4, 0.3, 0.3}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = 1 / float64(n)
	}
	return out
}

// nameMeans returns the paper's {3, 10, 17} for three blocks, evenly
// spaced otherwise.
func nameMeans(n int) []float64 {
	if n == 3 {
		return []float64{3, 10, 17}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = 20 * (float64(i) + 0.5) / float64(n)
	}
	return out
}

// AlgorithmSpec couples a grid-based clustering algorithm with its cell
// budget (the paper feeds different algorithms different cell counts:
// K-means/Forgy/MST 6000, approx-pairs 2000).
type AlgorithmSpec struct {
	Alg    cluster.Algorithm
	Budget int
	// MaxBudget caps the cell budget this algorithm is ever swept to in
	// Figure 10 (0 = unlimited). The paper never feeds the quadratic
	// pairwise algorithms more than 2000 cells.
	MaxBudget int
}

// DefaultAlgorithms returns the paper's §5.2 line-up with its budgets.
func DefaultAlgorithms() []AlgorithmSpec {
	return []AlgorithmSpec{
		{Alg: &cluster.KMeans{Variant: cluster.MacQueen}, Budget: 6000},
		{Alg: &cluster.KMeans{Variant: cluster.Forgy}, Budget: 6000},
		{Alg: &cluster.MST{}, Budget: 6000},
		{Alg: &cluster.Pairwise{}, Budget: 2000, MaxBudget: 2000},
		{Alg: &cluster.Pairwise{Approx: true}, Budget: 2000, MaxBudget: 2000},
	}
}

// DefaultNoLoss returns the paper's No-Loss parameters (5000 rectangles,
// 8 iterations).
func DefaultNoLoss() noloss.Config {
	return noloss.Config{PoolSize: 5000, Iterations: 8}
}

// runGrid clusters with one algorithm at one K and replays the evaluation
// events through a snapshot of the result decided under cfg; it reports
// costs and the clustering wall time.
func (env *StockEnv) runGrid(spec AlgorithmSpec, k int, cfg core.Config) (sim.Costs, time.Duration, error) {
	in, err := cluster.BuildInput(env.World, env.Grid, env.Train, spec.Budget)
	if err != nil {
		return sim.Costs{}, 0, err
	}
	res, elapsed, err := clusterGrid(in, spec.Alg, k)
	if err != nil {
		return sim.Costs{}, 0, err
	}
	costs, err := replayGrid(env.World, env.Grid, res, env.Model, env.Eval, cfg)
	return costs, elapsed, err
}

// clusterGrid clusters a clustering input into k groups; it reports the
// result and the clustering wall time.
func clusterGrid(in *cluster.Input, alg cluster.Algorithm, k int) (*cluster.Result, time.Duration, error) {
	start := time.Now()
	assign, err := alg.Cluster(in, k)
	elapsed := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	res, err := cluster.BuildResult(in, assign)
	return res, elapsed, err
}

// replayGrid replays events through a grid snapshot of res decided under
// cfg, pricing through model.
func replayGrid(w *workload.World, grid *space.Grid, res *cluster.Result, model *multicast.Model, events []workload.Event, cfg core.Config) (sim.Costs, error) {
	snap, err := core.GridSnapshot(w, grid, res, model, cfg)
	if err != nil {
		return sim.Costs{}, err
	}
	return sim.Evaluate(snap, model, events, nil)
}
