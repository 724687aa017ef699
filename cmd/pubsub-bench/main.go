// Command pubsub-bench regenerates every table and figure of the ICDCS
// 2002 paper's evaluation.
//
// Usage:
//
//	pubsub-bench [flags] <experiment>
//
// Experiments:
//
//	table1    Table 1 — unicast/broadcast/ideal costs, regionalism 0.4
//	table2    Table 2 — unicast/broadcast/ideal costs, no regionalism
//	baseline  §5.2 absolute costs on the stock workload (1-mode gaussian)
//	fig7      Figure 7 — improvement %% vs number of groups, all algorithms
//	fig8      Figure 8 — No-Loss quality vs pool size and iterations
//	fig9      Figure 9 — Figure 7 repeated on two different networks
//	fig10     Figure 10 — quality and running time vs cell budget
//	fig11     Figure 11 — quality vs running time (same sweep as fig10)
//	scenarios algorithm comparison across 1-, 4- and 9-mode publications
//	interest  §3 interest-fraction profile: Gryphon regime vs paper regime
//	frontier  grid-resolution and dimensionality sweeps (§6 open issues)
//	ablation  design-choice studies: Fig 5 threshold, outlier removal,
//	          last-mile link costs
//	all       run everything above in order
//
// The broker, durability and federation layers are measured against the
// real daemons by the bench/ driver, and their invariants (overload admission,
// churn, crash–restart, cross-shard exactly-once) are held by the owning
// packages' test suites, not by modes here.
//
// Flags:
//
//	-seed N      master random seed (default 1)
//	-events N    evaluation events per measurement (default 500)
//	-subs N      subscriptions in the §5.1 workload (default 1000)
//	-modes N     publication mixture modes: 1, 4 or 9 (default 1)
//	-quick       shrink all sweeps for a fast smoke run
//	-workers N   clustering worker count inside each algorithm; 0 (the
//	             default) resolves to GOMAXPROCS, negatives are rejected.
//	             The effective parallelism is echoed in each run header.
//	-csv DIR     additionally write CSV files into DIR
//	-metrics F   write a telemetry snapshot (JSON) to F; fig7 additionally
//	             collects per-algorithm cost distributions with
//	             p50/p95/p99, clustering times and replayed event counts
//	-cpuprofile F  write a pprof CPU profile of the run to F
//	-memprofile F  write a pprof heap profile to F on exit
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/noloss"
	"repro/internal/telemetry"
)

type options struct {
	seed       int64
	events     int
	subs       int
	modes      int
	quick      bool
	parallel   int
	workers    int
	csvDir     string
	metrics    string
	cpuprofile string
	memprofile string
}

func main() {
	var opt options
	flag.Int64Var(&opt.seed, "seed", 1, "master random seed")
	flag.IntVar(&opt.events, "events", 500, "evaluation events per measurement")
	flag.IntVar(&opt.subs, "subs", 1000, "subscriptions in the §5.1 workload")
	flag.IntVar(&opt.modes, "modes", 1, "publication mixture modes (1, 4 or 9)")
	flag.BoolVar(&opt.quick, "quick", false, "shrink sweeps for a fast run")
	flag.IntVar(&opt.parallel, "parallel", 0, "worker count for fig7 (0 = sequential, -1 = GOMAXPROCS)")
	flag.IntVar(&opt.workers, "workers", 0, "clustering worker count inside each algorithm (0 = GOMAXPROCS)")
	flag.StringVar(&opt.csvDir, "csv", "", "directory for CSV output")
	flag.StringVar(&opt.metrics, "metrics", "", "file for a JSON telemetry snapshot (fig7)")
	flag.StringVar(&opt.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&opt.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: pubsub-bench [flags] table1|table2|baseline|fig7|fig8|fig9|fig10|fig11|scenarios|interest|frontier|ablation|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if name := flag.Arg(0); name != "all" && name != "fig11" && !slices.Contains(sweep, name) {
		fmt.Fprintf(os.Stderr, "pubsub-bench: unknown experiment %q\n", name)
		flag.Usage()
		os.Exit(2)
	}
	if opt.workers < 0 {
		fmt.Fprintf(os.Stderr, "pubsub-bench: -workers %d is negative; use 0 for GOMAXPROCS\n", opt.workers)
		os.Exit(2)
	}
	if err := profiledRun(flag.Arg(0), opt); err != nil {
		fmt.Fprintf(os.Stderr, "pubsub-bench: %v\n", err)
		os.Exit(1)
	}
}

// profiledRun wraps run with the optional CPU/heap profilers, keeping the
// profile flushes out of os.Exit's way.
func profiledRun(name string, opt options) error {
	if opt.cpuprofile != "" {
		f, err := os.Create(opt.cpuprofile)
		if err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	err := run(name, opt)
	if opt.memprofile != "" {
		f, merr := os.Create(opt.memprofile)
		if merr != nil {
			return fmt.Errorf("mem profile: %w", merr)
		}
		defer f.Close()
		runtime.GC()
		if merr := pprof.WriteHeapProfile(f); merr != nil {
			return fmt.Errorf("mem profile: %w", merr)
		}
	}
	return err
}

// effectiveWorkers resolves the -workers flag the same way the cluster
// package does: 0 means GOMAXPROCS.
func (o options) effectiveWorkers() int {
	if o.workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.workers
}

// sweep is every experiment in the order "all" runs them (fig11 is
// fig10's sweep, so it is not run twice).
var sweep = []string{"table1", "table2", "baseline", "fig7", "fig8", "fig9", "fig10", "scenarios", "interest", "frontier", "ablation"}

func run(name string, opt options) error {
	if name != "all" {
		fmt.Printf("# %s: clustering parallelism %d worker(s) (-workers %d, 0 ⇒ GOMAXPROCS)\n",
			name, opt.effectiveWorkers(), opt.workers)
	}
	switch name {
	case "table1":
		return runTable(opt, "Table 1 (degree 0.4 regionalism)", 0.4, "table1.csv")
	case "table2":
		return runTable(opt, "Table 2 (no regionalism)", 0.0, "table2.csv")
	case "baseline":
		return runBaseline(opt)
	case "fig7":
		return runFig7(opt)
	case "fig8":
		return runFig8(opt)
	case "fig9":
		return runFig9(opt)
	case "fig10", "fig11":
		return runFig10(opt)
	case "ablation":
		return runAblation(opt)
	case "scenarios":
		return runScenarios(opt)
	case "interest":
		return runInterest(opt)
	case "frontier":
		return runFrontier(opt)
	case "all":
		for _, n := range sweep {
			if err := run(n, opt); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
			fmt.Println()
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
}

func (o options) envConfig() experiments.StockEnvConfig {
	cfg := experiments.StockEnvConfig{
		NumSubs:    o.subs,
		PubModes:   o.modes,
		EvalEvents: o.events,
		Seed:       o.seed,
	}
	if o.quick {
		cfg.NumSubs = min(cfg.NumSubs, 400)
		cfg.TrainEvents = 800
		cfg.EvalEvents = min(o.events, 200)
	}
	return cfg
}

func (o options) algorithms() []experiments.AlgorithmSpec {
	specs := experiments.DefaultAlgorithms()
	if o.quick {
		specs = []experiments.AlgorithmSpec{
			{Alg: &cluster.KMeans{Variant: cluster.MacQueen}, Budget: 800},
			{Alg: &cluster.KMeans{Variant: cluster.Forgy}, Budget: 800},
			{Alg: &cluster.MST{}, Budget: 800},
			{Alg: &cluster.Pairwise{Approx: true}, Budget: 500},
		}
	}
	// -workers pins the clustering parallelism of every algorithm; with the
	// flag at its default 0 the algorithms keep their own default, which
	// already resolves to GOMAXPROCS. RunFig7 re-divides this when
	// job-level parallelism is also requested.
	if o.workers > 0 {
		for _, s := range specs {
			if p, ok := s.Alg.(cluster.Parallel); ok {
				p.SetParallelism(o.workers)
			}
		}
	}
	return specs
}

func (o options) nolossConfig() noloss.Config {
	if o.quick {
		return noloss.Config{PoolSize: 1000, Iterations: 4}
	}
	return experiments.DefaultNoLoss()
}

func (o options) writeCSV(name string, render func(f *os.File) error) error {
	if o.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.csvDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return render(f)
}

func runTable(opt options, title string, regionalism float64, csvName string) error {
	rows := experiments.Table1Rows()
	if regionalism == 0 {
		rows = experiments.Table2Rows()
	}
	if opt.quick {
		rows = rows[:6]
	}
	events := opt.events
	if opt.quick {
		events = min(events, 120)
	}
	got, err := experiments.RunTable(experiments.TableConfig{
		Regionalism: regionalism,
		Rows:        rows,
		Events:      events,
		Seed:        opt.seed,
	})
	if err != nil {
		return err
	}
	if err := experiments.RenderTable(os.Stdout, title, got); err != nil {
		return err
	}
	return opt.writeCSV(csvName, func(f *os.File) error {
		return experiments.RenderTableCSV(f, got)
	})
}

func runBaseline(opt options) error {
	r, err := experiments.RunBaseline(opt.envConfig())
	if err != nil {
		return err
	}
	experiments.RenderBaseline(os.Stdout, r)
	return nil
}

func runFig7(opt options) error {
	env, err := experiments.NewStockEnv(opt.envConfig())
	if err != nil {
		return err
	}
	ks := experiments.DefaultKs()
	if opt.quick {
		ks = []int{10, 40, 80}
	}
	pts, reg, err := opt.fig7(env, ks)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Figure 7: improvement %% vs groups (%d-mode publications)", env.Config.PubModes)
	if err := experiments.RenderFig7(os.Stdout, title, pts); err != nil {
		return err
	}
	if err := opt.writeMetrics(reg); err != nil {
		return err
	}
	return opt.writeCSV("fig7.csv", func(f *os.File) error {
		return experiments.RenderFig7CSV(f, pts)
	})
}

// fig7 runs Figure 7 with -parallel jobs at once (0 = sequential, -1 =
// GOMAXPROCS). The registry is non-nil only when -metrics is set.
func (o options) fig7(env *experiments.StockEnv, ks []int) ([]experiments.Fig7Point, *telemetry.Registry, error) {
	var reg *telemetry.Registry
	if o.metrics != "" {
		reg = telemetry.NewRegistry()
	}
	workers := o.parallel
	switch {
	case workers == 0:
		workers = 1
	case workers < 0:
		workers = 0 // RunFig7 resolves 0 to GOMAXPROCS
	}
	pts, err := experiments.RunFig7(env, ks, o.algorithms(), o.nolossConfig(), workers, reg)
	return pts, reg, err
}

// writeMetrics dumps a registry snapshot as JSON to the -metrics file.
func (o options) writeMetrics(reg *telemetry.Registry) error {
	if o.metrics == "" || reg == nil {
		return nil
	}
	f, err := os.Create(o.metrics)
	if err != nil {
		return err
	}
	defer f.Close()
	return telemetry.WriteJSON(f, reg)
}

func runFig8(opt options) error {
	env, err := experiments.NewStockEnv(opt.envConfig())
	if err != nil {
		return err
	}
	cfg := experiments.DefaultFig8()
	if opt.quick {
		cfg = experiments.Fig8Config{
			PoolSizes:  []int{500, 2000},
			Iterations: []int{1, 4},
			FixedPool:  1000,
			FixedIters: 3,
			K:          80,
		}
	}
	pts, err := experiments.RunFig8(env, cfg)
	if err != nil {
		return err
	}
	if err := experiments.RenderFig8(os.Stdout, "Figure 8: No-Loss parameter sensitivity", pts); err != nil {
		return err
	}
	return opt.writeCSV("fig8.csv", func(f *os.File) error {
		return experiments.RenderFig8CSV(f, pts)
	})
}

func runFig9(opt options) error {
	ks := experiments.DefaultKs()
	if opt.quick {
		ks = []int{20, 60}
	}
	series, err := experiments.RunFig9(opt.envConfig(), [2]int64{opt.seed, opt.seed + 100},
		ks, opt.algorithms(), opt.nolossConfig())
	if err != nil {
		return err
	}
	for i, s := range series {
		title := fmt.Sprintf("Figure 9 (network %d, seed %d)", i+1, s.Seed)
		if err := experiments.RenderFig7(os.Stdout, title, s.Points); err != nil {
			return err
		}
		name := fmt.Sprintf("fig9_net%d.csv", i+1)
		pts := s.Points
		if err := opt.writeCSV(name, func(f *os.File) error {
			return experiments.RenderFig7CSV(f, pts)
		}); err != nil {
			return err
		}
	}
	return nil
}

func runFig10(opt options) error {
	env, err := experiments.NewStockEnv(opt.envConfig())
	if err != nil {
		return err
	}
	cfg := experiments.DefaultFig10()
	if opt.quick {
		cfg = experiments.Fig10Config{Budgets: []int{200, 800}, K: 60}
	}
	pts, err := experiments.RunFig10(env, opt.algorithms(), cfg)
	if err != nil {
		return err
	}
	if err := experiments.RenderFig10(os.Stdout,
		"Figures 10 & 11: quality and clustering time vs cell budget", pts); err != nil {
		return err
	}
	return opt.writeCSV("fig10.csv", func(f *os.File) error {
		return experiments.RenderFig10CSV(f, pts)
	})
}

func runScenarios(opt options) error {
	k := 100
	specs := experiments.ScenarioSpecs()
	if opt.quick {
		k = 50
		specs = specs[1:2] // forgy only
		for i := range specs {
			specs[i].Budget = 800
		}
	}
	pts, err := experiments.RunScenarios(opt.envConfig(), k, specs)
	if err != nil {
		return err
	}
	if err := experiments.RenderScenarios(os.Stdout,
		"Publication scenarios: 1-, 4- and 9-mode mixtures (K=100)", pts); err != nil {
		return err
	}
	return opt.writeCSV("scenarios.csv", func(f *os.File) error {
		return experiments.RenderScenariosCSV(f, pts)
	})
}

func runInterest(opt options) error {
	events := opt.events
	if opt.quick {
		events = 150
	}
	ps, err := experiments.RunInterestProfile(nil, events, opt.seed)
	if err != nil {
		return err
	}
	return experiments.RenderInterestProfile(os.Stdout,
		"Interest profile (§3): fraction of nodes interested per event", ps)
}

func runFrontier(opt options) error {
	env, err := experiments.NewStockEnv(opt.envConfig())
	if err != nil {
		return err
	}
	k := 100
	factors := []float64(nil)
	dims := []int(nil)
	if opt.quick {
		k = 50
		factors = []float64{0.5, 1}
		dims = []int{2, 4}
	}
	rp, err := experiments.RunGridResolution(env, k, factors)
	if err != nil {
		return err
	}
	if err := experiments.RenderResolution(os.Stdout,
		"Frontier: grid resolution (× the default cells per axis)", rp); err != nil {
		return err
	}
	dp, err := experiments.RunDimensionality(experiments.StockEnvConfig{}.TopologyOrDefault(), k, dims, opt.seed)
	if err != nil {
		return err
	}
	return experiments.RenderDimensionality(os.Stdout,
		"Frontier: event-space dimensionality (synthetic workload, 8 cells/axis)", dp)
}

func runAblation(opt options) error {
	env, err := experiments.NewStockEnv(opt.envConfig())
	if err != nil {
		return err
	}
	k := 100
	budget := 6000
	thresholds := []float64(nil)
	outlierFracs := []float64(nil)
	lastMile := []float64(nil)
	if opt.quick {
		k = 60
		budget = 1000
		thresholds = []float64{0, 0.1}
		outlierFracs = []float64{0, 0.1}
		lastMile = []float64{1, 4}
	}

	var all []experiments.AblationPoint
	th, err := experiments.RunThresholdAblation(env, k, thresholds)
	if err != nil {
		return err
	}
	if err := experiments.RenderAblation(os.Stdout,
		"Ablation: Fig 5 multicast threshold (Forgy, K=100)", "app-level %", th); err != nil {
		return err
	}
	all = append(all, th...)

	ol, err := experiments.RunOutlierAblation(env, k, budget, outlierFracs)
	if err != nil {
		return err
	}
	if err := experiments.RenderAblation(os.Stdout,
		"Ablation: outlier removal at oversized cell budget (§4.1 future work)", "cells removed", ol); err != nil {
		return err
	}
	all = append(all, ol...)

	lm, err := experiments.RunLastMileAblation(opt.envConfig(), k, lastMile)
	if err != nil {
		return err
	}
	if err := experiments.RenderAblation(os.Stdout,
		"Ablation: last-mile link cost factor (§6 extension 2)", "unicast baseline", lm); err != nil {
		return err
	}
	all = append(all, lm...)

	dynKs := []int(nil)
	if opt.quick {
		dynKs = []int{20, 60}
	}
	dm, err := experiments.RunDynamicMethodAblation(env, dynKs)
	if err != nil {
		return err
	}
	if err := experiments.RenderAblation(os.Stdout,
		"Ablation: §1 dynamic distribution-method decision (param = K; extra = dynamic %)", "dynamic %", dm); err != nil {
		return err
	}
	all = append(all, dm...)

	sampleSizes := []int(nil)
	if opt.quick {
		sampleSizes = []int{200, 800}
	}
	pb, err := experiments.RunProbAblation(env, k, budget/2, sampleSizes)
	if err != nil {
		return err
	}
	if err := experiments.RenderAblation(os.Stdout,
		"Ablation: probability estimator (param = sample size; 0 = analytic)", "expected waste", pb); err != nil {
		return err
	}
	all = append(all, pb...)

	return opt.writeCSV("ablation.csv", func(f *os.File) error {
		return experiments.RenderAblationCSV(f, all)
	})
}
