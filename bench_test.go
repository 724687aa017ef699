// Benchmarks regenerating every table and figure of the paper, plus
// microbenchmarks of the pipeline stages. Each experiment benchmark runs a
// scaled-down but structurally identical version of the corresponding
// pubsub-bench experiment; run the CLI for full-size reproductions.
//
//	go test -bench=. -benchmem
package pubsub_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/noloss"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"

	pubsub "repro"
)

// benchEnv caches one scaled-down §5.1 environment across benchmarks.
var benchEnv *experiments.StockEnv

func getEnv(b *testing.B) *experiments.StockEnv {
	b.Helper()
	if benchEnv == nil {
		env, err := experiments.NewStockEnv(experiments.StockEnvConfig{
			NumSubs:     600,
			PubModes:    1,
			TrainEvents: 1200,
			EvalEvents:  250,
			Seed:        1,
		})
		if err != nil {
			b.Fatal(err)
		}
		benchEnv = env
	}
	return benchEnv
}

func benchSpecs() []experiments.AlgorithmSpec {
	return []experiments.AlgorithmSpec{
		{Alg: &cluster.KMeans{Variant: cluster.MacQueen}, Budget: 1200},
		{Alg: &cluster.KMeans{Variant: cluster.Forgy}, Budget: 1200},
		{Alg: cluster.MST{}, Budget: 1200},
		{Alg: &cluster.Pairwise{Approx: true}, Budget: 800},
	}
}

// BenchmarkTable1 regenerates Table 1 (regionalism 0.4) on its three
// smallest rows.
func BenchmarkTable1(b *testing.B) {
	rows := []experiments.TableRowSpec{
		{Net: topology.Net100, Subs: 1000, Dist: workload.Uniform},
		{Net: topology.Net100, Subs: 1000, Dist: workload.Gaussian},
		{Net: topology.Net100, Subs: 80, Dist: workload.Uniform},
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable(experiments.TableConfig{
			Regionalism: 0.4, Rows: rows, Events: 100, Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (no regionalism) on its three
// smallest rows.
func BenchmarkTable2(b *testing.B) {
	rows := []experiments.TableRowSpec{
		{Net: topology.Net100, Subs: 1000, Dist: workload.Uniform},
		{Net: topology.Net100, Subs: 1000, Dist: workload.Gaussian},
		{Net: topology.Net100, Subs: 80, Dist: workload.Uniform},
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable(experiments.TableConfig{
			Regionalism: 0, Rows: rows, Events: 100, Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaseline52 regenerates the §5.2 absolute baseline measurement.
func BenchmarkBaseline52(b *testing.B) {
	env := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.MeasureBaselines(env.Model, env.World, env.Matcher, env.Eval); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates a reduced Figure 7 sweep (3 group counts, all
// algorithm families).
func BenchmarkFig7(b *testing.B) {
	env := getEnv(b)
	nl := noloss.Config{PoolSize: 800, Iterations: 3, Seeds: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig7(env, []int{10, 50, 100}, benchSpecs(), nl, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 regenerates a reduced Figure 8 sweep (No-Loss parameters).
func BenchmarkFig8(b *testing.B) {
	env := getEnv(b)
	cfg := experiments.Fig8Config{
		PoolSizes:  []int{400, 1200},
		Iterations: []int{2, 6},
		FixedPool:  800,
		FixedIters: 3,
		K:          80,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8(env, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9 regenerates a reduced Figure 9 (two networks, one
// algorithm).
func BenchmarkFig9(b *testing.B) {
	base := experiments.StockEnvConfig{
		NumSubs: 400, TrainEvents: 800, EvalEvents: 150,
	}
	specs := []experiments.AlgorithmSpec{
		{Alg: &cluster.KMeans{Variant: cluster.Forgy}, Budget: 800},
	}
	nl := noloss.Config{PoolSize: 600, Iterations: 2, Seeds: 24}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig9(base, [2]int64{1, 2}, []int{20, 80}, specs, nl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10 regenerates a reduced Figures 10/11 sweep (quality and
// time vs cell budget).
func BenchmarkFig10(b *testing.B) {
	env := getEnv(b)
	cfg := experiments.Fig10Config{Budgets: []int{300, 1000}, K: 60}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig10(env, benchSpecs(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- pipeline stage microbenchmarks ---

// BenchmarkTopologyGenerate measures transit–stub generation of the §5.1
// network.
func BenchmarkTopologyGenerate(b *testing.B) {
	cfg := topology.Eval600
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := topology.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildInput measures subscription rasterisation and hyper-cell
// coalescing.
func BenchmarkBuildInput(b *testing.B) {
	env := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.BuildInput(env.World, env.Grid, env.Train, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterAlgorithms measures each clustering algorithm in
// isolation at K=50.
func BenchmarkClusterAlgorithms(b *testing.B) {
	env := getEnv(b)
	in, err := cluster.BuildInput(env.World, env.Grid, env.Train, 1000)
	if err != nil {
		b.Fatal(err)
	}
	algs := []cluster.Algorithm{
		&cluster.KMeans{Variant: cluster.MacQueen},
		&cluster.KMeans{Variant: cluster.Forgy},
		cluster.MST{},
		&cluster.Pairwise{},
		&cluster.Pairwise{Approx: true},
	}
	for _, alg := range algs {
		b.Run(alg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := alg.Cluster(in, 50); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNoLossBuild measures the No-Loss intersection refinement.
func BenchmarkNoLossBuild(b *testing.B) {
	env := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := noloss.Build(env.World, env.Train, noloss.Config{
			PoolSize: 1000, Iterations: 4, Seeds: 32,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnginePublish measures the full per-event path: match, route,
// cost.
func BenchmarkEnginePublish(b *testing.B) {
	env := getEnv(b)
	engine, err := pubsub.NewEngineFromWorld(env.World, env.Train, pubsub.EngineConfig{
		Groups: 50, CellBudget: 1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	evs := env.Eval
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := engine.Publish(evs[i%len(evs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineWarmRefresh measures the dynamic re-clustering path.
func BenchmarkEngineWarmRefresh(b *testing.B) {
	env := getEnv(b)
	engine, err := pubsub.NewEngineFromWorld(env.World, env.Train, pubsub.EngineConfig{
		Groups:    50,
		Algorithm: &cluster.KMeans{Variant: cluster.MacQueen},

		CellBudget: 1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := engine.Refresh(2); err != nil {
			b.Fatal(err)
		}
	}
}
