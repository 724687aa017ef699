package sim

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/matching"
	"repro/internal/multicast"
	"repro/internal/noloss"
	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/workload"
)

type fixture struct {
	w      *workload.World
	grid   *space.Grid
	model  *multicast.Model
	match  matching.SubscriptionMatcher
	train  []workload.Event
	events []workload.Event
}

func newFixture(t *testing.T, subs int, seed int64) *fixture {
	t.Helper()
	cfg := topology.Eval600
	cfg.Seed = seed
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.NewStockWorld(g, workload.StockConfig{
		NumSubscriptions: subs, PubModes: 1, Seed: seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := space.NewGrid(w.Axes)
	if err != nil {
		t.Fatal(err)
	}
	m, err := matching.NewRTree(w)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		w:      w,
		grid:   grid,
		model:  multicast.NewModel(g),
		match:  m,
		train:  w.Events(1500, seed+2),
		events: w.Events(400, seed+3),
	}
}

func TestMeasureBaselines(t *testing.T) {
	f := newFixture(t, 500, 50)
	b, err := MeasureBaselines(f.model, f.w, f.match, f.events)
	if err != nil {
		t.Fatal(err)
	}
	if b.Unicast <= 0 || b.Broadcast <= 0 || b.Ideal <= 0 {
		t.Fatalf("non-positive baselines: %+v", b)
	}
	// The paper's regime: ideal ≤ broadcast, ideal ≤ unicast.
	if b.Ideal > b.Broadcast+1e-9 {
		t.Errorf("ideal %v > broadcast %v", b.Ideal, b.Broadcast)
	}
	if b.Ideal > b.Unicast+1e-9 {
		t.Errorf("ideal %v > unicast %v", b.Ideal, b.Unicast)
	}
}

func TestMeasureBaselinesNoEvents(t *testing.T) {
	f := newFixture(t, 50, 51)
	if _, err := MeasureBaselines(f.model, f.w, f.match, nil); err == nil {
		t.Error("no events accepted")
	}
}

func clusterResult(t *testing.T, f *fixture, alg cluster.Algorithm, k, budget int) *cluster.Result {
	t.Helper()
	in, err := cluster.BuildInput(f.w, f.grid, f.train, budget)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := alg.Cluster(in, k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.BuildResult(in, assign)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// evalGrid replays the fixture's events (or evs, when non-nil) through a
// grid snapshot of res.
func evalGrid(t *testing.T, f *fixture, res *cluster.Result, cfg core.Config, evs []workload.Event) (Costs, error) {
	t.Helper()
	snap, err := core.GridSnapshot(f.w, f.grid, res, f.model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return Evaluate(snap, f.model, evs, nil)
}

// evalNoLoss is evalGrid for the top k groups of a No-Loss result.
func evalNoLoss(t *testing.T, f *fixture, nres *noloss.Result, k int, evs []workload.Event) (Costs, error) {
	t.Helper()
	snap, err := core.NoLossSnapshot(f.w, nres, k, f.model, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return Evaluate(snap, f.model, evs, nil)
}

func TestEvaluateGridBounds(t *testing.T) {
	f := newFixture(t, 500, 52)
	b, err := MeasureBaselines(f.model, f.w, f.match, f.events)
	if err != nil {
		t.Fatal(err)
	}
	res := clusterResult(t, f, &cluster.KMeans{Variant: cluster.Forgy}, 50, 800)
	c, err := evalGrid(t, f, res, core.Config{}, f.events)
	if err != nil {
		t.Fatal(err)
	}
	if c.Network <= 0 || c.AppLevel <= 0 {
		t.Fatalf("non-positive costs: %+v", c)
	}
	// Network multicast with 50 groups must sit between ideal and a
	// broadcast-per-event upper bound.
	if c.Network < b.Ideal-1e-9 {
		t.Errorf("network cost %v below ideal %v", c.Network, b.Ideal)
	}
	if c.Network > b.Broadcast+b.Unicast {
		t.Errorf("network cost %v absurdly high (broadcast %v unicast %v)", c.Network, b.Broadcast, b.Unicast)
	}
	// ALM is at least as costly as network multicast on average.
	if c.AppLevel < c.Network-1e-9 {
		t.Errorf("app-level %v < network %v", c.AppLevel, c.Network)
	}
	// And the solution should actually improve over unicast here.
	if imp := Improvement(b, c.Network); imp <= 0 || imp > 100 {
		t.Errorf("improvement %v%% out of expected range", imp)
	}
}

func TestEvaluateGridMoreGroupsHelp(t *testing.T) {
	f := newFixture(t, 500, 53)
	b, err := MeasureBaselines(f.model, f.w, f.match, f.events)
	if err != nil {
		t.Fatal(err)
	}
	in, err := cluster.BuildInput(f.w, f.grid, f.train, 800)
	if err != nil {
		t.Fatal(err)
	}
	alg := &cluster.KMeans{Variant: cluster.Forgy}
	get := func(k int) float64 {
		assign, err := alg.Cluster(in, k)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cluster.BuildResult(in, assign)
		if err != nil {
			t.Fatal(err)
		}
		c, err := evalGrid(t, f, res, core.Config{}, f.events)
		if err != nil {
			t.Fatal(err)
		}
		return Improvement(b, c.Network)
	}
	low, high := get(5), get(80)
	if high <= low {
		t.Errorf("80 groups (%v%%) not better than 5 groups (%v%%)", high, low)
	}
}

func TestEvaluateGridThreshold(t *testing.T) {
	f := newFixture(t, 300, 54)
	res := clusterResult(t, f, cluster.MST{}, 10, 500)
	loose, err := evalGrid(t, f, res, core.Config{}, f.events)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := evalGrid(t, f, res, core.Config{Threshold: 1}, f.events)
	if err != nil {
		t.Fatal(err)
	}
	// Threshold 1 forces unicast unless the whole group is interested;
	// with only 10 coarse groups the multicast-everything strategy wastes
	// more than per-node unicast, so the strict variant should differ (and
	// normally be cheaper).
	if loose.Network == strict.Network {
		t.Error("threshold had no effect")
	}
}

func TestEvaluateNoLoss(t *testing.T) {
	f := newFixture(t, 500, 55)
	b, err := MeasureBaselines(f.model, f.w, f.match, f.events)
	if err != nil {
		t.Fatal(err)
	}
	nres, err := noloss.Build(f.w, f.train, noloss.Config{PoolSize: 1000, Iterations: 5, Seeds: 48})
	if err != nil {
		t.Fatal(err)
	}
	c, err := evalNoLoss(t, f, nres, 80, f.events)
	if err != nil {
		t.Fatal(err)
	}
	if c.Network < b.Ideal-1e-9 {
		t.Errorf("no-loss network cost %v below ideal %v", c.Network, b.Ideal)
	}
	if c.AppLevel < c.Network-1e-9 {
		t.Errorf("no-loss ALM %v < network %v", c.AppLevel, c.Network)
	}
	if imp := Improvement(b, c.Network); imp <= 0 || imp > 100 {
		t.Errorf("no-loss improvement %v%% out of range", imp)
	}
}

func TestImprovement(t *testing.T) {
	b := Baselines{Unicast: 100, Ideal: 20}
	if got := Improvement(b, 100); got != 0 {
		t.Errorf("Improvement at unicast = %v", got)
	}
	if got := Improvement(b, 20); got != 100 {
		t.Errorf("Improvement at ideal = %v", got)
	}
	if got := Improvement(b, 60); got != 50 {
		t.Errorf("Improvement midway = %v", got)
	}
	if got := Improvement(Baselines{Unicast: 5, Ideal: 5}, 5); got != 0 {
		t.Errorf("degenerate improvement = %v", got)
	}
}

func TestEvaluateErrorsOnEmptyEvents(t *testing.T) {
	f := newFixture(t, 100, 56)
	res := clusterResult(t, f, &cluster.KMeans{}, 5, 200)
	if _, err := evalGrid(t, f, res, core.Config{}, nil); err == nil {
		t.Error("Evaluate accepted empty grid events")
	}
	nres, err := noloss.Build(f.w, f.train, noloss.Config{PoolSize: 100, Iterations: 1, Seeds: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evalNoLoss(t, f, nres, 10, nil); err == nil {
		t.Error("Evaluate accepted empty no-loss events")
	}
}

func TestExpectedTransmissions(t *testing.T) {
	if got := ExpectedTransmissions(0, 4); got != 1 {
		t.Errorf("p=0: %v", got)
	}
	if got := ExpectedTransmissions(1, 4); got != 5 {
		t.Errorf("p=1: %v", got)
	}
	// p=0.5, retries=2: 1 + 0.5 + 0.25 = 1.75.
	if got := ExpectedTransmissions(0.5, 2); math.Abs(got-1.75) > 1e-12 {
		t.Errorf("p=0.5 r=2: %v", got)
	}
	// Monotone in p and in retries.
	if ExpectedTransmissions(0.3, 4) >= ExpectedTransmissions(0.6, 4) {
		t.Error("not monotone in p")
	}
	if ExpectedTransmissions(0.3, 2) >= ExpectedTransmissions(0.3, 8) {
		t.Error("not monotone in retries")
	}
	if got := ExpectedTransmissions(0.5, -3); got != 1 {
		t.Errorf("negative retries: %v", got)
	}
}

func TestDeliveryProbability(t *testing.T) {
	if got := DeliveryProbability(0, 3); got != 1 {
		t.Errorf("p=0: %v", got)
	}
	if got := DeliveryProbability(1, 3); got != 0 {
		t.Errorf("p=1: %v", got)
	}
	// p=0.5, retries=1: 1 - 0.25 = 0.75.
	if got := DeliveryProbability(0.5, 1); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("p=0.5 r=1: %v", got)
	}
	if DeliveryProbability(0.5, 1) >= DeliveryProbability(0.5, 5) {
		t.Error("more retries must raise delivery probability")
	}
}

func TestFaultAdjust(t *testing.T) {
	c := Costs{Network: 100, AppLevel: 150}
	got := FaultAdjust(c, 0, 4)
	if got != c {
		t.Errorf("loss-free adjust changed costs: %+v", got)
	}
	adj := FaultAdjust(c, 0.5, 2)
	if math.Abs(adj.Network-175) > 1e-9 || math.Abs(adj.AppLevel-262.5) > 1e-9 {
		t.Errorf("FaultAdjust = %+v", adj)
	}
	if adj.Network <= c.Network {
		t.Error("lossy fabric must cost more")
	}
}
