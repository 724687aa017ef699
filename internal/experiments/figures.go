package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/multicast"
	"repro/internal/noloss"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Fig7Point is one point of Figure 7: the improvement percentage of one
// algorithm at one group count, under both multicast frameworks.
type Fig7Point struct {
	Alg      string
	K        int
	Network  float64 // improvement % under network-supported multicast
	AppLevel float64 // improvement % under application-level multicast
}

// DefaultKs is the Figure 7 sweep over available multicast groups.
func DefaultKs() []int { return []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100} }

// RunFig7 sweeps group counts for every grid algorithm plus No-Loss on the
// environment, returning improvement percentages: every spec in order,
// then No-Loss, each over ks in order.
//
// Up to workers (algorithm, K) jobs run at once; workers ≤ 0 selects
// GOMAXPROCS. Each worker prices through its own view of env.Model, and
// the clustering input of each cell budget is built once and shared
// read-only, so the points are identical for every worker count. With
// workers > 1, job-level and clustering-level parallelism compose: every
// spec algorithm implementing cluster.Parallel is pinned to
// ≈ GOMAXPROCS/workers inner workers (at least 1) so the two layers
// together saturate the machine without oversubscribing it. The specs are
// mutated in place, once, before any job runs.
//
// A non-nil reg collects, per scope "fig7/<alg>", the per-event cost
// distributions (net_cost and app_cost, linear histograms scaled to the
// baselines), the clustering wall times (cluster_ns) and the replayed
// event count (events). A nil reg records nothing.
func RunFig7(env *StockEnv, ks []int, specs []AlgorithmSpec, nolossCfg noloss.Config, workers int, reg *telemetry.Registry) ([]Fig7Point, error) {
	if len(ks) == 0 {
		ks = DefaultKs()
	}
	if specs == nil {
		specs = DefaultAlgorithms()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 {
		inner := max(runtime.GOMAXPROCS(0)/workers, 1)
		for _, spec := range specs {
			if p, ok := spec.Alg.(cluster.Parallel); ok {
				p.SetParallelism(inner)
			}
		}
	}

	var jobs []fig7Job
	for _, spec := range specs {
		scope := newFig7Scope(reg, spec.Alg.Name(), env.Baselines)
		for _, k := range ks {
			jobs = append(jobs, fig7Job{alg: spec.Alg.Name(), spec: spec, k: k, scope: scope})
		}
	}
	scope := newFig7Scope(reg, "no-loss", env.Baselines)
	for _, k := range ks {
		jobs = append(jobs, fig7Job{alg: "no-loss", k: k, scope: scope})
	}

	// Clustering inputs (one per cell budget) and the No-Loss groups are
	// built once up front and shared read-only by every job.
	inputs := map[int]*cluster.Input{}
	for _, spec := range specs {
		if inputs[spec.Budget] != nil {
			continue
		}
		in, err := cluster.BuildInput(env.World, env.Grid, env.Train, spec.Budget)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig7 budget %d: %w", spec.Budget, err)
		}
		inputs[spec.Budget] = in
	}
	nres, err := noloss.Build(env.World, env.Train, nolossCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig7 no-loss build: %w", err)
	}

	out := make([]Fig7Point, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			view := env.Model.View()
			for i := range next {
				out[i], errs[i] = env.fig7Point(jobs[i], view, inputs, nres)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fig7Job is one Figure 7 point to compute: a grid algorithm at one K, or
// No-Loss's top k groups when spec.Alg is nil.
type fig7Job struct {
	alg   string
	spec  AlgorithmSpec
	k     int
	scope *fig7Scope
}

// fig7Point computes job j, replaying the evaluation events through a
// snapshot of its grouping and pricing through view.
func (env *StockEnv) fig7Point(j fig7Job, view *multicast.Model, inputs map[int]*cluster.Input, nres *noloss.Result) (Fig7Point, error) {
	snap, err := env.fig7Snapshot(j, inputs, nres)
	var costs sim.Costs
	if err == nil {
		costs, err = sim.Evaluate(snap, view, env.Eval, j.scope.observer())
	}
	if err != nil {
		return Fig7Point{}, fmt.Errorf("experiments: fig7 %s k=%d: %w", j.alg, j.k, err)
	}
	return Fig7Point{
		Alg:      j.alg,
		K:        j.k,
		Network:  sim.Improvement(env.Baselines, costs.Network),
		AppLevel: sim.Improvement(env.Baselines, costs.AppLevel),
	}, nil
}

// fig7Snapshot builds job j's decision snapshot, clustering first for a
// grid job.
func (env *StockEnv) fig7Snapshot(j fig7Job, inputs map[int]*cluster.Input, nres *noloss.Result) (*core.DecisionSnapshot, error) {
	if j.spec.Alg == nil {
		return core.NoLossSnapshot(env.World, nres, j.k, env.Model, core.Config{})
	}
	res, elapsed, err := clusterGrid(inputs[j.spec.Budget], j.spec.Alg, j.k)
	if err != nil {
		return nil, err
	}
	j.scope.clusterNs.ObserveDuration(elapsed)
	return core.GridSnapshot(env.World, env.Grid, res, env.Model, core.Config{})
}

// Fig8Point is one point of Figure 8: No-Loss quality as a function of its
// two parameters (rectangles kept and iterations).
type Fig8Point struct {
	PoolSize   int
	Iterations int
	K          int     // groups used at evaluation
	Network    float64 // improvement %
}

// Fig8Config selects the two sweeps. K is the group count used when
// evaluating each run.
type Fig8Config struct {
	PoolSizes  []int // swept with Iterations = FixedIters
	Iterations []int // swept with PoolSize = FixedPool
	FixedPool  int
	FixedIters int
	K          int
}

// DefaultFig8 mirrors the paper's ranges around its operating point
// (5000 rectangles, 8 iterations).
func DefaultFig8() Fig8Config {
	return Fig8Config{
		PoolSizes:  []int{500, 1000, 2000, 4000, 6000, 8000},
		Iterations: []int{1, 2, 4, 6, 8, 10},
		FixedPool:  5000,
		FixedIters: 8,
		K:          100,
	}
}

// RunFig8 sweeps No-Loss parameters. The pool-size sweep is run twice:
// once evaluating the paper's default K groups, and once using the whole
// pool as the group list A (K = pool size, the literal Fig 6 reading) —
// the latter exposes pool-size sensitivity that a fixed small K masks,
// because the top-K regions stabilise at small pools.
func RunFig8(env *StockEnv, cfg Fig8Config) ([]Fig8Point, error) {
	if cfg.K == 0 {
		cfg.K = 100
	}
	var out []Fig8Point
	eval := func(pool, iters, k int) error {
		nres, err := noloss.Build(env.World, env.Train, noloss.Config{PoolSize: pool, Iterations: iters})
		if err != nil {
			return err
		}
		snap, err := core.NoLossSnapshot(env.World, nres, k, env.Model, core.Config{})
		if err != nil {
			return err
		}
		costs, err := sim.Evaluate(snap, env.Model, env.Eval, nil)
		if err != nil {
			return err
		}
		out = append(out, Fig8Point{
			PoolSize:   pool,
			Iterations: iters,
			K:          k,
			Network:    sim.Improvement(env.Baselines, costs.Network),
		})
		return nil
	}
	for _, pool := range cfg.PoolSizes {
		if err := eval(pool, cfg.FixedIters, cfg.K); err != nil {
			return nil, fmt.Errorf("experiments: fig8 pool=%d: %w", pool, err)
		}
	}
	for _, pool := range cfg.PoolSizes {
		if err := eval(pool, cfg.FixedIters, pool); err != nil {
			return nil, fmt.Errorf("experiments: fig8 pool=%d k=pool: %w", pool, err)
		}
	}
	for _, iters := range cfg.Iterations {
		if err := eval(cfg.FixedPool, iters, cfg.K); err != nil {
			return nil, fmt.Errorf("experiments: fig8 iters=%d: %w", iters, err)
		}
	}
	return out, nil
}

// Fig9Series is Figure 9: the same algorithm comparison run on two
// networks generated with different seeds, demonstrating topology
// robustness.
type Fig9Series struct {
	Seed   int64
	Points []Fig7Point
}

// RunFig9 runs the Figure 7 sweep on two environments differing only in
// seed.
func RunFig9(base StockEnvConfig, seeds [2]int64, ks []int, specs []AlgorithmSpec, nolossCfg noloss.Config) ([2]Fig9Series, error) {
	var out [2]Fig9Series
	for i, seed := range seeds {
		cfg := base
		cfg.Seed = seed
		env, err := NewStockEnv(cfg)
		if err != nil {
			return out, fmt.Errorf("experiments: fig9 seed %d: %w", seed, err)
		}
		pts, err := RunFig7(env, ks, specs, nolossCfg, 1, nil)
		if err != nil {
			return out, fmt.Errorf("experiments: fig9 seed %d: %w", seed, err)
		}
		out[i] = Fig9Series{Seed: seed, Points: pts}
	}
	return out, nil
}

// Fig10Point is one point of Figures 10/11: quality and clustering wall
// time as a function of the cell budget fed to an algorithm.
type Fig10Point struct {
	Alg         string
	Budget      int
	Improvement float64 // network multicast improvement %
	Elapsed     time.Duration
}

// Fig10Config selects the sweep.
type Fig10Config struct {
	Budgets []int
	K       int
}

// DefaultFig10 mirrors the paper's cell-count sweep.
func DefaultFig10() Fig10Config {
	return Fig10Config{
		Budgets: []int{250, 500, 1000, 2000, 4000, 6000},
		K:       100,
	}
}

// RunFig10 sweeps the cell budget for each algorithm, measuring solution
// quality and clustering time. Figure 11 (quality as a function of time)
// is a re-plot of the same points.
func RunFig10(env *StockEnv, specs []AlgorithmSpec, cfg Fig10Config) ([]Fig10Point, error) {
	if specs == nil {
		specs = DefaultAlgorithms()
	}
	if cfg.K == 0 {
		cfg.K = 100
	}
	if len(cfg.Budgets) == 0 {
		cfg.Budgets = DefaultFig10().Budgets
	}
	var out []Fig10Point
	for _, spec := range specs {
		for _, budget := range cfg.Budgets {
			if spec.MaxBudget > 0 && budget > spec.MaxBudget {
				continue
			}
			s := spec
			s.Budget = budget
			costs, elapsed, err := env.runGrid(s, cfg.K, core.Config{})
			if err != nil {
				return nil, fmt.Errorf("experiments: fig10 %s budget=%d: %w", spec.Alg.Name(), budget, err)
			}
			out = append(out, Fig10Point{
				Alg:         spec.Alg.Name(),
				Budget:      budget,
				Improvement: sim.Improvement(env.Baselines, costs.Network),
				Elapsed:     elapsed,
			})
		}
	}
	return out, nil
}
