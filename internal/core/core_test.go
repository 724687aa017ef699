package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/multicast"
	"repro/internal/noloss"
	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/workload"
)

func testWorld(t *testing.T, subs int, seed int64) (*workload.World, []workload.Event) {
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
	return w, w.Events(1000, seed+2)
}

// decide returns the delivery plan Publish makes for ev, for tests that
// inspect only the plan.
func decide(t *testing.T, e *Engine, ev workload.Event) Decision {
	t.Helper()
	d, _, err := e.Publish(ev)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidation(t *testing.T) {
	w, train := testWorld(t, 50, 80)
	if _, err := NewFromWorld(w, train, Config{Groups: 0}); err == nil {
		t.Error("Groups=0 accepted")
	}
	if _, err := NewFromWorld(w, train, Config{Groups: 10, Threshold: 2}); err == nil {
		t.Error("Threshold=2 accepted")
	}
	if _, err := NewFromWorld(w, nil, Config{Groups: 10}); err == nil {
		t.Error("no training events accepted")
	}
	if _, err := NewFromWorld(nil, train, Config{Groups: 10}); err == nil {
		t.Error("nil world accepted")
	}
}

// TestLastBuildPhases checks the rebuild's phase split: every phase of a
// grid build takes time, and the phases, being disjoint stretches of the
// constructor, sum to no more than the constructor's own wall time. A
// warm Refresh replaces the record.
func TestLastBuildPhases(t *testing.T) {
	w, train := testWorld(t, 300, 84)
	start := time.Now()
	e, err := NewFromWorld(w, train, Config{Groups: 20, CellBudget: 400})
	total := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	check := func(b BuildTimes, limit time.Duration) {
		t.Helper()
		phases := []time.Duration{b.Index, b.Input, b.Cluster, b.Groups}
		sum := time.Duration(0)
		for i, d := range phases {
			if d <= 0 {
				t.Errorf("phase %d of %v is %v, want > 0", i, b, d)
			}
			sum += d
		}
		if sum > limit {
			t.Errorf("phases %v sum to %v, more than the measured %v", b, sum, limit)
		}
	}
	first := e.LastBuild()
	check(first, total)
	if err := e.RemoveSubscription(0); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if err := e.Refresh(2); err != nil {
		t.Fatal(err)
	}
	check(e.LastBuild(), time.Since(start))
	if e.LastBuild() == first {
		t.Error("Refresh left the previous build's phases in place")
	}
}

func TestEngineGridLifecycle(t *testing.T) {
	w, train := testWorld(t, 300, 81)
	e, err := NewFromWorld(w, train, Config{Groups: 30, CellBudget: 600})
	if err != nil {
		t.Fatal(err)
	}
	if e.NumGroups() == 0 || e.NumGroups() > 30 {
		t.Fatalf("NumGroups = %d", e.NumGroups())
	}
	if e.Stale() {
		t.Error("fresh engine stale")
	}
	if e.NumSubscriptions() != 300 {
		t.Errorf("NumSubscriptions = %d", e.NumSubscriptions())
	}

	evs := w.Events(200, 83)
	multicasts, unicasts := 0, 0
	for _, ev := range evs {
		d, c, err := e.Publish(ev)
		if err != nil {
			t.Fatal(err)
		}
		if d.Method == multicast.NetworkMulticast {
			multicasts++
			if d.Group < 0 || d.Group >= e.NumGroups() {
				t.Fatalf("bad group %d", d.Group)
			}
			// Static engine: group covers all interested; no remainder.
			if len(d.Remainder) != 0 {
				t.Fatalf("static engine produced remainder %v", d.Remainder)
			}
		} else {
			unicasts++
		}
		if c.Network < 0 || c.AppLevel < c.Network-1e-9 {
			t.Fatalf("cost ordering broken: %+v", c)
		}
		// Interested nodes must be consistent with matched subscriptions.
		if len(d.MatchedSubs) == 0 && len(d.Interested) != 0 {
			t.Fatal("interested without matches")
		}
	}
	if multicasts == 0 {
		t.Error("no event was multicast")
	}
}

func TestEnginePublishValidation(t *testing.T) {
	w, train := testWorld(t, 100, 82)
	e, err := NewFromWorld(w, train, Config{Groups: 10, CellBudget: 300})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Publish(workload.Event{Pub: 0, Point: space.Point{1}}); err == nil {
		t.Error("bad dim accepted")
	}
	if _, _, err := e.Publish(workload.Event{Pub: -1, Point: make(space.Point, 4)}); err == nil {
		t.Error("bad publisher accepted")
	}
}

func TestEngineNoLossStrategy(t *testing.T) {
	w, train := testWorld(t, 300, 84)
	e, err := NewFromWorld(w, train, Config{
		Groups: 40,
		NoLoss: &noloss.Config{PoolSize: 600, Iterations: 3, Seeds: 24},
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := w.Events(150, 85)
	multicasts := 0
	for _, ev := range evs {
		d, _, err := e.Publish(ev)
		if err != nil {
			t.Fatal(err)
		}
		if d.Method != multicast.NetworkMulticast {
			continue
		}
		multicasts++
		// No-loss guarantee: every group node is interested (group ⊆
		// interested); remainder covers the rest.
		interested := map[topology.NodeID]bool{}
		for _, n := range d.Interested {
			interested[n] = true
		}
		for _, n := range e.groups.nodes[d.Group] {
			if !interested[n] {
				t.Fatalf("no-loss group delivered to uninterested node %d", n)
			}
		}
		covered := map[topology.NodeID]bool{}
		for _, n := range e.groups.nodes[d.Group] {
			covered[n] = true
		}
		for _, n := range d.Remainder {
			if covered[n] {
				t.Fatal("remainder overlaps group")
			}
		}
	}
	if multicasts == 0 {
		t.Error("no-loss engine never multicast")
	}
}

func TestEngineThresholdForcesUnicast(t *testing.T) {
	w, train := testWorld(t, 200, 86)
	always, err := NewFromWorld(w, train, Config{Groups: 5, CellBudget: 300})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := NewFromWorld(w, train, Config{Groups: 5, CellBudget: 300, Threshold: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	evs := w.Events(150, 87)
	alwaysMC, strictMC := 0, 0
	for _, ev := range evs {
		if d := decide(t, always, ev); d.Method == multicast.NetworkMulticast {
			alwaysMC++
		}
		if d := decide(t, strict, ev); d.Method == multicast.NetworkMulticast {
			strictMC++
		}
	}
	if strictMC >= alwaysMC {
		t.Errorf("threshold did not reduce multicasts: %d vs %d", strictMC, alwaysMC)
	}
}

func TestEngineDynamicsAddNeverLoses(t *testing.T) {
	w, train := testWorld(t, 200, 88)
	e, err := NewFromWorld(w, train, Config{Groups: 20, CellBudget: 400})
	if err != nil {
		t.Fatal(err)
	}
	// A brand-new subscriber (node previously without subscriptions) with a
	// wide subscription.
	var newcomer topology.NodeID = -1
	for i := 0; i < w.Graph.NumNodes(); i++ {
		n := topology.NodeID(i)
		if w.Graph.Node(n).Kind != topology.StubNode {
			continue
		}
		if _, ok := w.SubscriberIndex(n); !ok {
			newcomer = n
			break
		}
	}
	if newcomer == -1 {
		t.Skip("every stub node already subscribes")
	}
	wide := space.Rect{space.Full(), space.Full(), space.Full(), space.Full()}
	slot, err := e.AddSubscription(workload.Subscription{Owner: newcomer, Rect: wide})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Stale() {
		t.Error("engine not stale after add")
	}
	// Every event must now reach the newcomer: either via group or via
	// remainder.
	evs := w.Events(100, 89)
	for _, ev := range evs {
		d := decide(t, e, ev)
		delivered := false
		for _, n := range d.Interested {
			if n == newcomer {
				delivered = true
			}
		}
		if !delivered {
			t.Fatal("wildcard subscriber not matched")
		}
		if d.Method == multicast.NetworkMulticast {
			inGroup := false
			for _, n := range e.groups.nodes[d.Group] {
				if n == newcomer {
					inGroup = true
				}
			}
			inRemainder := false
			for _, n := range d.Remainder {
				if n == newcomer {
					inRemainder = true
				}
			}
			if !inGroup && !inRemainder {
				t.Fatal("newcomer lost: neither in group nor remainder")
			}
		}
	}
	// After Refresh the newcomer joins the membership vectors and the
	// remainder disappears.
	if err := e.Refresh(3); err != nil {
		t.Fatal(err)
	}
	if e.Stale() {
		t.Error("stale after refresh")
	}
	if _, ok := e.World().SubscriberIndex(newcomer); !ok {
		t.Fatal("newcomer not indexed after refresh")
	}
	for _, ev := range evs[:30] {
		d := decide(t, e, ev)
		if d.Method == multicast.NetworkMulticast && len(d.Remainder) != 0 {
			t.Fatal("remainder persists after refresh")
		}
	}
	_ = slot
}

func TestEngineDynamicsRemove(t *testing.T) {
	w, train := testWorld(t, 200, 90)
	e, err := NewFromWorld(w, train, Config{Groups: 20, CellBudget: 400})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveSubscription(0); err != nil {
		t.Fatal(err)
	}
	if e.NumSubscriptions() != 199 {
		t.Errorf("NumSubscriptions = %d", e.NumSubscriptions())
	}
	if err := e.RemoveSubscription(0); err == nil {
		t.Error("double remove accepted")
	}
	if err := e.RemoveSubscription(10_000); err == nil {
		t.Error("bad slot accepted")
	}
	if err := e.Refresh(2); err != nil {
		t.Fatal(err)
	}
	if e.NumSubscriptions() != 199 {
		t.Errorf("after refresh NumSubscriptions = %d", e.NumSubscriptions())
	}
}

func TestEngineAddValidation(t *testing.T) {
	w, train := testWorld(t, 100, 91)
	e, err := NewFromWorld(w, train, Config{Groups: 10, CellBudget: 200})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddSubscription(workload.Subscription{Owner: 0, Rect: space.Rect{space.Full()}}); err == nil {
		t.Error("dim mismatch accepted")
	}
	empty := space.Rect{space.Span(1, 1), space.Full(), space.Full(), space.Full()}
	if _, err := e.AddSubscription(workload.Subscription{Owner: 0, Rect: empty}); err == nil {
		t.Error("empty rect accepted")
	}
	if _, err := e.AddSubscription(workload.Subscription{Owner: -5, Rect: space.FullRect(4)}); err == nil {
		t.Error("bad owner accepted")
	}
}

func TestWarmRefreshQualityComparable(t *testing.T) {
	// Warm refresh after a small perturbation should not be dramatically
	// worse than a cold rebuild.
	w, train := testWorld(t, 300, 92)
	mkEngine := func() *Engine {
		e, err := NewFromWorld(w, train, Config{
			Groups: 25, CellBudget: 500,
			Algorithm: &cluster.KMeans{Variant: cluster.MacQueen},
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	avgCost := func(e *Engine, evs []workload.Event) float64 {
		total := 0.0
		for _, ev := range evs {
			_, c, err := e.Publish(ev)
			if err != nil {
				t.Fatal(err)
			}
			total += c.Network
		}
		return total / float64(len(evs))
	}
	evs := w.Events(200, 93)

	warm := mkEngine()
	cold := mkEngine()
	// Perturb both identically: drop 10 subscriptions.
	for slot := 0; slot < 10; slot++ {
		if err := warm.RemoveSubscription(slot); err != nil {
			t.Fatal(err)
		}
		if err := cold.RemoveSubscription(slot); err != nil {
			t.Fatal(err)
		}
	}
	if err := warm.Refresh(2); err != nil {
		t.Fatal(err)
	}
	if err := cold.Refresh(0); err != nil { // 0 ⇒ full rebuild
		t.Fatal(err)
	}
	cw, cc := avgCost(warm, evs), avgCost(cold, evs)
	if math.IsNaN(cw) || math.IsNaN(cc) {
		t.Fatal("NaN costs")
	}
	if cw > cc*1.5+1 {
		t.Errorf("warm refresh cost %v ≫ cold rebuild %v", cw, cc)
	}
}

// TestDynamicMethodNeverWorse: with DynamicMethod, the network cost of
// every decision is ≤ the cost of each alternative it considered.
func TestDynamicMethodNeverWorse(t *testing.T) {
	w, train := testWorld(t, 300, 95)
	static, err := NewFromWorld(w, train, Config{Groups: 15, CellBudget: 400})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewFromWorld(w, train, Config{Groups: 15, CellBudget: 400, DynamicMethod: true})
	if err != nil {
		t.Fatal(err)
	}
	sawBroadcast, sawDowngrade := false, false
	for _, ev := range w.Events(300, 96) {
		ds, cs, err := static.Publish(ev)
		if err != nil {
			t.Fatal(err)
		}
		dd, cd, err := dyn.Publish(ev)
		if err != nil {
			t.Fatal(err)
		}
		// Dynamic choice must not exceed the static engine's network cost
		// (it considered the same group plus two alternatives).
		if cd.Network > cs.Network+1e-9 {
			t.Fatalf("dynamic %v > static %v", cd.Network, cs.Network)
		}
		// Never worse than pure unicast either.
		unicast := 0.0
		for _, n := range dd.Interested {
			unicast += dyn.Model().Dist(ev.Pub, n)
		}
		if cd.Network > unicast+1e-9 {
			t.Fatalf("dynamic %v > unicast %v", cd.Network, unicast)
		}
		if dd.Method == multicast.Broadcast {
			sawBroadcast = true
		}
		if ds.Method == multicast.NetworkMulticast && dd.Method == multicast.Unicast {
			sawDowngrade = true
		}
	}
	// The sweep should exercise at least the downgrade path.
	if !sawDowngrade && !sawBroadcast {
		t.Error("dynamic method never changed a decision; test not exercising the feature")
	}
}
