package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/matching"
	"repro/internal/multicast"
	"repro/internal/noloss"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestGridSnapshotMatchesEngine pins the seam the paper's experiments
// replay through: a GridSnapshot (or NoLossSnapshot) over an engine's own
// world and grouping must decide and price every event exactly as the
// engine's Publish does, including under the threshold rule and the
// dynamic method comparison (which exercises every cost query).
func TestGridSnapshotMatchesEngine(t *testing.T) {
	w, train := testWorld(t, 300, 400)
	evs := w.Events(300, 401)
	check := func(name string, e *Engine, snap *DecisionSnapshot, model *multicast.Model) {
		t.Helper()
		for _, ev := range evs {
			want, wc, err := e.Publish(ev)
			if err != nil {
				t.Fatal(err)
			}
			got := snap.Decide(ev, model)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: decision diverged: engine %+v, snapshot %+v", name, want, got)
			}
			if gc := snap.CostOf(ev, got, model); wc != gc {
				t.Fatalf("%s: costs diverged: engine %+v, snapshot %+v", name, wc, gc)
			}
		}
	}

	cfg := Config{Groups: 30, CellBudget: 600, Threshold: 0.05, DynamicMethod: true}
	e, err := NewFromWorld(w, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := multicast.NewModel(w.Graph)
	snap, err := GridSnapshot(e.world, e.grid, e.gridRes, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("grid", e, snap, model)
	if _, err := GridSnapshot(e.world, e.grid, e.gridRes, model, Config{Threshold: 1.5}); err == nil {
		t.Error("GridSnapshot accepted Threshold 1.5")
	}

	cfg = Config{Groups: 30, NoLoss: &noloss.Config{PoolSize: 600, Iterations: 3, Seeds: 24},
		Threshold: 0.05, DynamicMethod: true}
	e, err = NewFromWorld(w, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nres := &noloss.Result{Groups: e.groups.route.(*matching.NoLossIndex).Groups()}
	snap, err = NoLossSnapshot(e.world, nres, cfg.Groups, model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("no-loss", e, snap, model)
}

// TestSnapshotCaching: Snapshot() must return the identical object until
// state changes, bump the version on churn and quarantine, and share the
// subscription index across quarantine-only rebuilds.
func TestSnapshotCaching(t *testing.T) {
	w, train := testWorld(t, 200, 402)
	e, err := NewFromWorld(w, train, Config{Groups: 20, CellBudget: 500})
	if err != nil {
		t.Fatal(err)
	}
	s1 := e.Snapshot()
	if s2 := e.Snapshot(); s2 != s1 {
		t.Fatal("clean engine rebuilt its snapshot")
	}

	// Quarantine-only change: new snapshot, shared structure.
	e.Quarantine(0)
	s3 := e.Snapshot()
	if s3 == s1 {
		t.Fatal("quarantine did not produce a new snapshot")
	}
	if s3.Version() <= s1.Version() {
		t.Fatalf("version did not advance: %d → %d", s1.Version(), s3.Version())
	}
	if s3.dec.tree != s1.dec.tree {
		t.Error("quarantine-only snapshot cloned the tree")
	}
	if !s3.Quarantined(0) || s1.Quarantined(0) {
		t.Error("quarantine copy leaked across snapshots")
	}

	// Subscription churn: a fresh clone, not the live tree.
	sub := w.Subs[0]
	if _, err := e.AddSubscription(sub); err != nil {
		t.Fatal(err)
	}
	s4 := e.Snapshot()
	if s4.dec.tree == s3.dec.tree {
		t.Error("churn snapshot shares the live tree")
	}
	if s4.NumSubscriptions() != s3.NumSubscriptions()+1 {
		t.Errorf("subscription count %d → %d", s3.NumSubscriptions(), s4.NumSubscriptions())
	}
}

// TestSnapshotIsolation: once taken, a snapshot's decisions must not move
// when the engine mutates underneath it — that is the whole RCU contract.
func TestSnapshotIsolation(t *testing.T) {
	w, train := testWorld(t, 250, 403)
	e, err := NewFromWorld(w, train, Config{Groups: 25, CellBudget: 500})
	if err != nil {
		t.Fatal(err)
	}
	evs := w.Events(200, 404)
	snap := e.Snapshot()
	view := e.NewSPTView()
	before := make([]Decision, len(evs))
	for i, ev := range evs {
		before[i] = snap.Decide(ev, view)
	}

	// Mutate the engine aggressively: churn subscriptions (tree inserts can
	// split nodes), quarantine groups, refresh.
	for i := 0; i < 50; i++ {
		if _, err := e.AddSubscription(w.Subs[i%len(w.Subs)]); err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < e.NumGroups(); g += 2 {
		e.Quarantine(g)
	}
	if err := e.Refresh(0); err != nil {
		t.Fatal(err)
	}

	for i, ev := range evs {
		if got := snap.Decide(ev, view); !reflect.DeepEqual(got, before[i]) {
			t.Fatalf("snapshot decision %d drifted after engine mutation:\nbefore %+v\nafter  %+v", i, before[i], got)
		}
	}
}

// TestSnapshotConcurrentReaders: 1, 2 and 8 goroutines (each with its own
// SPT view) must produce identical decisions for the same event stream —
// the decision-equivalence guarantee the sharded broker builds on.
func TestSnapshotConcurrentReaders(t *testing.T) {
	w, train := testWorld(t, 300, 405)
	e, err := NewFromWorld(w, train, Config{
		Groups: 30, CellBudget: 600, DynamicMethod: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	evs := w.Events(400, 406)

	serial := make([]Decision, len(evs))
	view := e.NewSPTView()
	for i, ev := range evs {
		serial[i] = snap.Decide(ev, view)
	}

	for _, workers := range []int{1, 2, 8} {
		got := make([]Decision, len(evs))
		var wg sync.WaitGroup
		for wkr := 0; wkr < workers; wkr++ {
			wg.Add(1)
			go func(wkr int) {
				defer wg.Done()
				v := e.NewSPTView()
				for i := wkr; i < len(evs); i += workers {
					got[i] = snap.Decide(evs[i], v)
				}
			}(wkr)
		}
		wg.Wait()
		for i := range evs {
			if !reflect.DeepEqual(serial[i], got[i]) {
				t.Fatalf("%d workers: decision %d diverged:\nserial %+v\nparallel %+v", workers, i, serial[i], got[i])
			}
		}
	}
}

// TestSnapshotChurnVisibility: a subscription added after a snapshot is
// invisible to it but visible to the next one, with the new subscriber
// covered (as interested) for events in its rectangle.
func TestSnapshotChurnVisibility(t *testing.T) {
	w, train := testWorld(t, 150, 407)
	e, err := NewFromWorld(w, train, Config{Groups: 15, CellBudget: 400})
	if err != nil {
		t.Fatal(err)
	}
	old := e.Snapshot()
	view := e.NewSPTView()

	// A brand-new owner node subscribing to everything.
	owner := pickNonSubscriber(e, w)
	sub := workload.Subscription{Owner: owner, Rect: w.Subs[0].Rect}
	slot, err := e.AddSubscription(sub)
	if err != nil {
		t.Fatal(err)
	}
	fresh := e.Snapshot()
	if fresh == old {
		t.Fatal("churn did not produce a new snapshot")
	}

	covered := 0
	for _, ev := range w.Events(300, 408) {
		if !sub.Rect.Contains(ev.Point) {
			continue
		}
		if hasNode(old.Decide(ev, view).Interested, owner) {
			t.Fatal("old snapshot sees the new subscriber")
		}
		if !hasNode(fresh.Decide(ev, view).Interested, owner) {
			t.Fatal("fresh snapshot misses the new subscriber")
		}
		covered++
	}
	if covered == 0 {
		t.Fatal("no event hit the churned subscription")
	}
	if err := e.RemoveSubscription(slot); err != nil {
		t.Fatal(err)
	}
	if gone := e.Snapshot(); gone.NumSubscriptions() != old.NumSubscriptions() {
		t.Errorf("after remove: %d subscriptions, want %d", gone.NumSubscriptions(), old.NumSubscriptions())
	}
}

// pickNonSubscriber finds a node with no subscriptions at world build time.
func pickNonSubscriber(e *Engine, w *workload.World) topology.NodeID {
	for n := 0; n < e.graph.NumNodes(); n++ {
		if _, ok := w.SubscriberIndex(topology.NodeID(n)); !ok {
			return topology.NodeID(n)
		}
	}
	return 0
}

func hasNode(nodes []topology.NodeID, n topology.NodeID) bool {
	for _, x := range nodes {
		if x == n {
			return true
		}
	}
	return false
}

// TestSnapshotChurnAllocs: a subscription change plus the snapshot that
// publishes it costs O(path) allocations, not O(subscriptions). The
// snapshot's index shares the engine's R*-tree, and a change copies only
// the nodes on its root-to-leaf path; a full copy of the 20k-subscription
// tree would be thousands of allocations.
func TestSnapshotChurnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector shadow allocations")
	}
	const (
		runs     = 200
		maxPerOp = 150
		maxDelta = 20
	)
	measure := func(subs int) (add, remove float64) {
		w, train := testWorld(t, subs, 409)
		e, err := NewFromWorld(w, train, Config{Groups: 20, CellBudget: 400})
		if err != nil {
			t.Fatal(err)
		}
		e.Snapshot()
		slots := make([]int, 0, runs+1) // AllocsPerRun adds one warm-up call
		add = testing.AllocsPerRun(runs, func() {
			slot, err := e.AddSubscription(w.Subs[len(slots)])
			if err != nil {
				t.Fatal(err)
			}
			slots = append(slots, slot)
			e.Snapshot()
		})
		i := 0
		remove = testing.AllocsPerRun(runs, func() {
			if err := e.RemoveSubscription(slots[i]); err != nil {
				t.Fatal(err)
			}
			e.Snapshot()
			i++
		})
		return add, remove
	}
	addSmall, removeSmall := measure(2000)
	addLarge, removeLarge := measure(20000)
	t.Logf("allocs per op: add+snapshot %.0f / %.0f, remove+snapshot %.0f / %.0f at 2k / 20k subscriptions",
		addSmall, addLarge, removeSmall, removeLarge)
	for _, a := range []float64{addSmall, addLarge, removeSmall, removeLarge} {
		if a > maxPerOp {
			t.Fatalf("a churn op plus snapshot allocates %.0f times, want ≤ %d", a, maxPerOp)
		}
	}
	if d := math.Abs(addLarge - addSmall); d > maxDelta {
		t.Errorf("add+snapshot allocations grow by %.0f from 2k to 20k subscriptions, want ≤ %d", d, maxDelta)
	}
	if d := math.Abs(removeLarge - removeSmall); d > maxDelta {
		t.Errorf("remove+snapshot allocations grow by %.0f from 2k to 20k subscriptions, want ≤ %d", d, maxDelta)
	}
}
