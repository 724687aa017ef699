package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/noloss"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// smallEnv is a scaled-down §5.1 environment for fast tests.
func smallEnv(t *testing.T, seed int64) *StockEnv {
	t.Helper()
	env, err := NewStockEnv(StockEnvConfig{
		NumSubs:     400,
		PubModes:    1,
		TrainEvents: 800,
		EvalEvents:  200,
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func smallSpecs() []AlgorithmSpec {
	return []AlgorithmSpec{
		{Alg: &cluster.KMeans{Variant: cluster.MacQueen}, Budget: 600},
		{Alg: &cluster.KMeans{Variant: cluster.Forgy}, Budget: 600},
		{Alg: cluster.MST{}, Budget: 600},
		{Alg: &cluster.Pairwise{Approx: true}, Budget: 400},
	}
}

func TestNewStockEnvDefaults(t *testing.T) {
	env := smallEnv(t, 60)
	if env.World == nil || env.Grid == nil || env.Model == nil {
		t.Fatal("env incomplete")
	}
	if env.Baselines.Unicast <= env.Baselines.Ideal {
		t.Fatalf("baselines degenerate: %+v", env.Baselines)
	}
	if len(env.Train) != 800 || len(env.Eval) != 200 {
		t.Fatal("event counts wrong")
	}
}

func TestRunTableSmall(t *testing.T) {
	rows, err := RunTable(TableConfig{
		Regionalism: 0.4,
		Rows: []TableRowSpec{
			{topology.Net100, 500, workload.Uniform},
			{topology.Net100, 500, workload.Gaussian},
			{topology.Net100, 80, workload.Uniform},
		},
		Events: 120,
		Seed:   61,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Unicast <= 0 || r.Broadcast <= 0 || r.Ideal <= 0 {
			t.Fatalf("row %d non-positive: %+v", i, r)
		}
		if r.Ideal > r.Broadcast+1e-9 {
			t.Fatalf("row %d: ideal > broadcast", i)
		}
		if r.Nodes != 100 {
			t.Fatalf("row %d nodes = %d", i, r.Nodes)
		}
	}
	// Paper shape: with many subscriptions per node, unicast ≫ broadcast;
	// with few (80), unicast < broadcast.
	if rows[0].Unicast < rows[0].Broadcast {
		t.Errorf("500 subs: unicast %v not > broadcast %v", rows[0].Unicast, rows[0].Broadcast)
	}
	if rows[2].Unicast > rows[2].Broadcast {
		t.Errorf("80 subs: unicast %v not < broadcast %v", rows[2].Unicast, rows[2].Broadcast)
	}
	// Gaussian costs ≥ uniform costs for the same size (more matching).
	if rows[1].Unicast < rows[0].Unicast {
		t.Errorf("gaussian unicast %v < uniform %v", rows[1].Unicast, rows[0].Unicast)
	}
	// Golden values recorded at a2a8c71: a refactor of the cost model or
	// the routing must reproduce them bit for bit.
	golden := [][3]float64{
		{1011.280274780084, 325.92405411509486, 185.085932752725},
		{1694.5191648262708, 326.06634555485005, 221.08496848884178},
		{130.4772291893986, 326.1523017395527, 62.21353154663703},
	}
	for i, r := range rows {
		if got := [3]float64{r.Unicast, r.Broadcast, r.Ideal}; got != golden[i] {
			t.Errorf("row %d (unicast, broadcast, ideal) = %v, golden %v", i, got, golden[i])
		}
	}
}

func TestRunTableErrors(t *testing.T) {
	if _, err := RunTable(TableConfig{}); err == nil {
		t.Error("empty rows accepted")
	}
}

func TestRunBaseline(t *testing.T) {
	r, err := RunBaseline(StockEnvConfig{NumSubs: 300, TrainEvents: 400, EvalEvents: 150, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	if r.Subs != 300 || r.Nodes == 0 {
		t.Fatalf("baseline result: %+v", r)
	}
	// §5.2 regime: ideal well below unicast and broadcast comparable to
	// unicast.
	if !(r.Baselines.Ideal < r.Baselines.Unicast) {
		t.Errorf("ideal %v not < unicast %v", r.Baselines.Ideal, r.Baselines.Unicast)
	}
}

func TestRunFig7Small(t *testing.T) {
	env := smallEnv(t, 63)
	ks := []int{10, 40, 80}
	pts, err := RunFig7(env, ks, smallSpecs(), noloss.Config{PoolSize: 800, Iterations: 3, Seeds: 32}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := len(ks) * (len(smallSpecs()) + 1) // +1 for no-loss
	if len(pts) != want {
		t.Fatalf("points = %d, want %d", len(pts), want)
	}
	algs := map[string]bool{}
	for _, p := range pts {
		algs[p.Alg] = true
		if p.Network > 100+1e-9 {
			t.Errorf("%s K=%d improvement %v%% > 100", p.Alg, p.K, p.Network)
		}
		// App-level multicast should not beat network multicast.
		if p.AppLevel > p.Network+1e-9 {
			t.Errorf("%s K=%d app-level %v%% > network %v%%", p.Alg, p.K, p.AppLevel, p.Network)
		}
	}
	if !algs["no-loss"] || !algs["forgy"] {
		t.Fatalf("missing algorithms: %v", algs)
	}
	// Clustering should beat unicast at K=80 for the iterative algorithms.
	for _, p := range pts {
		if p.K == 80 && (p.Alg == "forgy" || p.Alg == "k-means") && p.Network <= 0 {
			t.Errorf("%s at K=80 has non-positive improvement %v", p.Alg, p.Network)
		}
	}
	// Golden values recorded at a2a8c71, compared bit for bit.
	golden := []Fig7Point{
		{"k-means", 10, 24.04609239422441, 16.27235523181239},
		{"k-means", 40, 36.28399979092068, 30.02894201401782},
		{"k-means", 80, 39.81351752292465, 34.67404039298611},
		{"forgy", 10, 20.648703413221398, 14.263900413182034},
		{"forgy", 40, 31.130490087732987, 24.881039034636153},
		{"forgy", 80, 34.983393632411094, 29.23211160884669},
		{"mst", 10, 9.072076561515102, 2.6456450542697874},
		{"mst", 40, 13.414275763129268, 6.546053223070975},
		{"mst", 80, 29.7485152438217, 22.65924238746578},
		{"approx-pairs", 10, 36.243515263769766, 31.25975658229982},
		{"approx-pairs", 40, 40.43421945446089, 36.219917709455814},
		{"approx-pairs", 80, 41.64169945690441, 37.87523573542245},
		{"no-loss", 10, 15.074216257077309, 14.657998268938243},
		{"no-loss", 40, 20.088278649989903, 19.534259685969303},
		{"no-loss", 80, 20.088278649989903, 19.534259685969303},
	}
	for i, p := range pts {
		if p != golden[i] {
			t.Errorf("point %d = %+v, golden %+v", i, p, golden[i])
		}
	}
}

func TestRunFig8Small(t *testing.T) {
	env := smallEnv(t, 64)
	cfg := Fig8Config{
		PoolSizes:  []int{200, 800},
		Iterations: []int{1, 4},
		FixedPool:  800,
		FixedIters: 3,
		K:          60,
	}
	pts, err := RunFig8(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two pool sweeps (fixed K and K=pool) plus the iteration sweep.
	if want := 2*len(cfg.PoolSizes) + len(cfg.Iterations); len(pts) != want {
		t.Fatalf("points = %d, want %d", len(pts), want)
	}
	for _, p := range pts {
		if p.K <= 0 {
			t.Fatalf("point with K=%d", p.K)
		}
	}
}

func TestRunFig9Small(t *testing.T) {
	base := StockEnvConfig{NumSubs: 300, TrainEvents: 500, EvalEvents: 120}
	series, err := RunFig9(base, [2]int64{70, 71}, []int{20, 60},
		[]AlgorithmSpec{{Alg: &cluster.KMeans{Variant: cluster.Forgy}, Budget: 400}},
		noloss.Config{PoolSize: 400, Iterations: 2, Seeds: 16})
	if err != nil {
		t.Fatal(err)
	}
	if series[0].Seed == series[1].Seed {
		t.Fatal("seeds identical")
	}
	for i, s := range series {
		if len(s.Points) != 4 { // (1 grid alg + no-loss) × 2 Ks
			t.Fatalf("series %d has %d points", i, len(s.Points))
		}
	}
}

func TestRunFig10Small(t *testing.T) {
	env := smallEnv(t, 65)
	pts, err := RunFig10(env,
		[]AlgorithmSpec{
			{Alg: &cluster.KMeans{Variant: cluster.Forgy}},
			{Alg: cluster.MST{}},
		},
		Fig10Config{Budgets: []int{100, 400}, K: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Elapsed <= 0 {
			t.Errorf("%s budget=%d elapsed %v", p.Alg, p.Budget, p.Elapsed)
		}
	}
}

func TestThresholdAblation(t *testing.T) {
	env := smallEnv(t, 66)
	pts, err := RunThresholdAblation(env, 40, []float64{0, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Param != 0 || pts[1].Param != 0.2 {
		t.Fatal("params wrong")
	}
}

func TestOutlierAblation(t *testing.T) {
	env := smallEnv(t, 67)
	pts, err := RunOutlierAblation(env, 40, 600, []float64{0, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Extra != 0 {
		t.Errorf("frac 0 removed %v cells", pts[0].Extra)
	}
	if pts[1].Extra <= 0 {
		t.Errorf("frac 0.1 removed %v cells", pts[1].Extra)
	}
}

func TestLastMileAblation(t *testing.T) {
	base := StockEnvConfig{NumSubs: 250, TrainEvents: 500, EvalEvents: 100, Seed: 68}
	pts, err := RunLastMileAblation(base, 30, []float64{1, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// Pricier last miles inflate the unicast baseline.
	if pts[1].Extra <= pts[0].Extra {
		t.Errorf("last-mile factor 6 unicast %v not > factor 1 unicast %v", pts[1].Extra, pts[0].Extra)
	}
}

func TestRunFig7ParallelMatchesSequential(t *testing.T) {
	env := smallEnv(t, 72)
	ks := []int{15, 45}
	specs := smallSpecs()[:2]
	nl := noloss.Config{PoolSize: 400, Iterations: 2, Seeds: 16}
	seq, err := RunFig7(env, ks, specs, nl, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunFig7(env, ks, specs, nl, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, seq[i], par[i])
		}
	}
}

func TestRunFig7ParallelDefaultWorkers(t *testing.T) {
	env := smallEnv(t, 73)
	pts, err := RunFig7(env, []int{20},
		[]AlgorithmSpec{{Alg: &cluster.KMeans{Variant: cluster.Forgy}, Budget: 300}},
		noloss.Config{PoolSize: 200, Iterations: 1, Seeds: 8}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
}

// TestRunFig7Telemetry: a registry gets one fig7/<alg> scope per spec plus
// no-loss, each counting every replayed event, and recording changes no
// point, sequentially or with four workers.
func TestRunFig7Telemetry(t *testing.T) {
	env := smallEnv(t, 74)
	ks := []int{15, 45}
	specs := smallSpecs()[:2]
	nl := noloss.Config{PoolSize: 400, Iterations: 2, Seeds: 16}
	plain, err := RunFig7(env, ks, specs, nl, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	regs := map[int]*telemetry.Registry{}
	for _, workers := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		pts, err := RunFig7(env, ks, specs, nl, workers, reg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pts, plain) {
			t.Fatalf("workers=%d: recorded points %+v, want %+v", workers, pts, plain)
		}
		regs[workers] = reg
	}

	want := int64(len(ks) * len(env.Eval))
	for workers, reg := range regs {
		snap := reg.Snapshot()
		scopes := []string{"fig7/no-loss"}
		for _, spec := range specs {
			scopes = append(scopes, "fig7/"+spec.Alg.Name())
		}
		if len(snap) != len(scopes) {
			t.Errorf("workers=%d: %d scopes, want %v", workers, len(snap), scopes)
		}
		for _, name := range scopes {
			sc, ok := snap[name]
			if !ok {
				t.Errorf("workers=%d: no scope %s", workers, name)
				continue
			}
			if got := sc.Counters["events"]; got != want {
				t.Errorf("workers=%d: %s events = %d, want %d", workers, name, got, want)
			}
			for _, h := range []string{"net_cost", "app_cost"} {
				if got := sc.Histograms[h].Count; got != want {
					t.Errorf("workers=%d: %s %s count = %d, want %d", workers, name, h, got, want)
				}
			}
		}
	}
}

func TestRunScenarios(t *testing.T) {
	base := StockEnvConfig{NumSubs: 250, TrainEvents: 500, EvalEvents: 100, Seed: 69}
	specs := []AlgorithmSpec{{Alg: &cluster.KMeans{Variant: cluster.Forgy}, Budget: 500}}
	pts, err := RunScenarios(base, 40, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	modes := map[int]bool{}
	for _, p := range pts {
		modes[p.Modes] = true
		if p.Unicast <= 0 || p.Ideal <= 0 {
			t.Fatalf("bad baselines in %+v", p)
		}
	}
	if !modes[1] || !modes[4] || !modes[9] {
		t.Fatalf("missing modes: %v", modes)
	}
	var sb strings.Builder
	if err := RenderScenarios(&sb, "s", pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "forgy") {
		t.Error("render missing algorithm")
	}
	sb.Reset()
	if err := RenderScenariosCSV(&sb, pts); err != nil {
		t.Fatal(err)
	}
}

func TestRenderAblation(t *testing.T) {
	pts := []AblationPoint{{Study: "threshold", Param: 0.1, Network: 50, Extra: 45}}
	var sb strings.Builder
	if err := RenderAblation(&sb, "t", "x", pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "50.0") {
		t.Error("render missing value")
	}
	sb.Reset()
	if err := RenderAblationCSV(&sb, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "study,param") {
		t.Error("CSV header missing")
	}
}

func TestRenderers(t *testing.T) {
	rows := []TableRow{{Nodes: 100, Subs: 80, Dist: workload.Uniform, Unicast: 750, Broadcast: 1430, Ideal: 310}}
	var sb strings.Builder
	if err := RenderTable(&sb, "Table 1", rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "uniform") || !strings.Contains(sb.String(), "750") {
		t.Errorf("table render missing content:\n%s", sb.String())
	}
	sb.Reset()
	if err := RenderTableCSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "nodes,subs,dist") {
		t.Error("CSV header missing")
	}

	pts := []Fig7Point{{Alg: "forgy", K: 10, Network: 50.5, AppLevel: 44.4}}
	sb.Reset()
	if err := RenderFig7(&sb, "Fig 7", pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "forgy") {
		t.Error("fig7 render missing algorithm")
	}
	sb.Reset()
	if err := RenderFig7CSV(&sb, pts); err != nil {
		t.Fatal(err)
	}

	f8 := []Fig8Point{{PoolSize: 500, Iterations: 8, Network: 33.3}}
	sb.Reset()
	if err := RenderFig8(&sb, "Fig 8", f8); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := RenderFig8CSV(&sb, f8); err != nil {
		t.Fatal(err)
	}

	f10 := []Fig10Point{{Alg: "mst", Budget: 1000, Improvement: 40, Elapsed: 1500000}}
	sb.Reset()
	if err := RenderFig10(&sb, "Fig 10", f10); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := RenderFig10CSV(&sb, f10); err != nil {
		t.Fatal(err)
	}

	sb.Reset()
	RenderBaseline(&sb, BaselineResult{Nodes: 615, Subs: 1000})
	if !strings.Contains(sb.String(), "615 nodes") {
		t.Error("baseline render missing")
	}
}

func TestProbAblation(t *testing.T) {
	env := smallEnv(t, 74)
	pts, err := RunProbAblation(env, 30, 400, []int{150, 600})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 { // two sample sizes + analytic
		t.Fatalf("points = %d", len(pts))
	}
	if pts[2].Param != 0 {
		t.Fatal("analytic point missing")
	}
	for _, p := range pts {
		if p.Extra < 0 {
			t.Fatalf("negative waste %v", p.Extra)
		}
	}
}

func TestDynamicMethodAblation(t *testing.T) {
	env := smallEnv(t, 78)
	pts, err := RunDynamicMethodAblation(env, []int{15})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("points = %d", len(pts))
	}
	// Dynamic can only help (per event it picks the cheapest option, which
	// includes what the static engine would do).
	if pts[0].Extra < pts[0].Network-1e-9 {
		t.Errorf("dynamic %v worse than static %v", pts[0].Extra, pts[0].Network)
	}
	// Golden values recorded at a2a8c71 (Engine.Publish → pickMethod),
	// compared bit for bit.
	if pts[0].Network != 3.0296598424058923 || pts[0].Extra != 26.298397385404108 {
		t.Errorf("(static, dynamic) = (%v, %v), golden (3.0296598424058923, 26.298397385404108)", pts[0].Network, pts[0].Extra)
	}
}

func TestInterestProfile(t *testing.T) {
	specs := []InterestSpec{
		{Label: "dense", Net: topology.Net100, Subs: 3000, Dist: workload.Gaussian},
		{Label: "sparse", Net: topology.Net100, Subs: 60, Dist: workload.Gaussian},
	}
	ps, err := RunInterestProfile(specs, 150, 81)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Fatalf("profiles = %d", len(ps))
	}
	for _, p := range ps {
		sum := 0.0
		for _, h := range p.Histogram {
			sum += h
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s histogram sums to %v", p.Label, sum)
		}
	}
	// §3 argument: the dense regime reaches far more of the network per
	// event than the sparse one.
	if ps[0].MeanFrac <= ps[1].MeanFrac {
		t.Errorf("dense mean %v not > sparse mean %v", ps[0].MeanFrac, ps[1].MeanFrac)
	}
	var sb strings.Builder
	if err := RenderInterestProfile(&sb, "t", ps); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dense") {
		t.Error("render missing label")
	}
}

func TestGridResolution(t *testing.T) {
	env := smallEnv(t, 82)
	pts, err := RunGridResolution(env, 40, []float64{0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].GridCells >= pts[1].GridCells {
		t.Error("coarser grid not smaller")
	}
	if pts[0].HyperCells > pts[1].HyperCells {
		t.Error("coarser grid has more hyper-cells")
	}
	var sb strings.Builder
	if err := RenderResolution(&sb, "r", pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "grid cells") {
		t.Error("render missing header")
	}
}

func TestDimensionality(t *testing.T) {
	pts, err := RunDimensionality(topology.Net100, 30, []int{2, 4}, 83)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].GridCells != 64 || pts[1].GridCells != 4096 {
		t.Fatalf("grid cells %d/%d", pts[0].GridCells, pts[1].GridCells)
	}
	var sb strings.Builder
	if err := RenderDimensionality(&sb, "d", pts); err != nil {
		t.Fatal(err)
	}
}
