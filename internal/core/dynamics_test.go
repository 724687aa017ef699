package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/multicast"
	"repro/internal/space"
	"repro/internal/topology"
)

// TestMajorityGroupEdgeCases exercises the warm-start seeding helper
// beyond the happy path: no previous assignment, an out-of-range old
// winner (old K > new K), and a straight majority.
func TestMajorityGroupEdgeCases(t *testing.T) {
	cells := []space.CellID{1, 2, 3}

	if got := majorityGroup(cells, map[space.CellID]int{}, 5); got != -1 {
		t.Errorf("unclustered cells: got %d, want -1", got)
	}

	// Old winner index ≥ new K: the stale seed must be rejected, not fed
	// to the clusterer as an out-of-range group.
	old := map[space.CellID]int{1: 7, 2: 7, 3: 0}
	if got := majorityGroup(cells, old, 3); got != -1 {
		t.Errorf("out-of-range winner: got %d, want -1", got)
	}
	// The same counts under a larger K keep the winner.
	if got := majorityGroup(cells, old, 8); got != 7 {
		t.Errorf("in-range winner: got %d, want 7", got)
	}

	old = map[space.CellID]int{1: 2, 2: 2, 3: 1}
	if got := majorityGroup(cells, old, 4); got != 2 {
		t.Errorf("majority: got %d, want 2", got)
	}

	if got := majorityGroup(nil, map[space.CellID]int{1: 0}, 4); got != -1 {
		t.Errorf("empty cell list: got %d, want -1", got)
	}
}

// TestRefreshAfterRemovingWholeGroup removes every subscription owned by
// the members of one multicast group, then warm-refreshes: the refresh
// must succeed even though a whole group's interest vanished, and the
// remaining decisions must stay complete.
func TestRefreshAfterRemovingWholeGroup(t *testing.T) {
	w, train := testWorld(t, 300, 97)
	e, err := NewFromWorld(w, train, Config{
		Groups: 15, CellBudget: 400,
		Algorithm: &cluster.KMeans{Variant: cluster.Forgy},
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.NumGroups() == 0 {
		t.Fatal("no groups")
	}
	victims := map[topology.NodeID]bool{}
	for _, n := range e.groups.nodes[0] {
		victims[n] = true
	}
	if len(victims) == 0 {
		t.Fatal("group 0 empty")
	}
	removed := 0
	for slot := range e.world.Subs {
		if e.live[slot] && victims[e.world.Subs[slot].Owner] {
			if err := e.RemoveSubscription(slot); err != nil {
				t.Fatal(err)
			}
			removed++
		}
	}
	if removed == 0 {
		t.Fatal("no subscriptions removed")
	}
	if err := e.Refresh(2); err != nil {
		t.Fatalf("warm refresh after removing a whole group: %v", err)
	}
	if e.Stale() {
		t.Error("stale after refresh")
	}
	if got := e.NumSubscriptions(); got != 300-removed {
		t.Errorf("NumSubscriptions = %d, want %d", got, 300-removed)
	}
	// Former group members no longer subscribe: no decision may list them
	// as interested, and every interested node must still be covered.
	for _, ev := range w.Events(100, 98) {
		d := decide(t, e, ev)
		for _, n := range d.Interested {
			if victims[n] {
				t.Fatalf("removed subscriber %d still matched", n)
			}
		}
		if d.Method != multicast.NetworkMulticast {
			continue
		}
		covered := map[topology.NodeID]bool{}
		for _, n := range e.groups.nodes[d.Group] {
			covered[n] = true
		}
		for _, n := range d.Remainder {
			covered[n] = true
		}
		for _, n := range d.Interested {
			if !covered[n] {
				t.Fatalf("interested node %d not covered after refresh", n)
			}
		}
	}
}

// TestRefreshWithZeroLiveSubscriptions: draining the engine entirely must
// produce a clean error from Refresh, not a crash deep in clustering.
func TestRefreshWithZeroLiveSubscriptions(t *testing.T) {
	w, train := testWorld(t, 50, 99)
	e, err := NewFromWorld(w, train, Config{Groups: 5, CellBudget: 200})
	if err != nil {
		t.Fatal(err)
	}
	for slot := range e.world.Subs {
		if e.live[slot] {
			if err := e.RemoveSubscription(slot); err != nil {
				t.Fatal(err)
			}
		}
	}
	if e.NumSubscriptions() != 0 {
		t.Fatalf("NumSubscriptions = %d", e.NumSubscriptions())
	}
	if err := e.Refresh(2); err == nil {
		t.Fatal("refresh with zero live subscriptions accepted")
	}
	if err := e.Refresh(0); err == nil {
		t.Fatal("cold refresh with zero live subscriptions accepted")
	}
}

// TestQuarantineLifecycle: quarantine redirects decisions to unicast and
// both Refresh and rebuild clear it.
func TestQuarantineLifecycle(t *testing.T) {
	w, train := testWorld(t, 200, 100)
	e, err := NewFromWorld(w, train, Config{Groups: 10, CellBudget: 300})
	if err != nil {
		t.Fatal(err)
	}
	evs := w.Events(200, 101)
	// Find an event routed through a group.
	var grp = -1
	for _, ev := range evs {
		if d := decide(t, e, ev); d.Method == multicast.NetworkMulticast {
			grp = d.Group
			break
		}
	}
	if grp < 0 {
		t.Fatal("no multicast decision to quarantine")
	}
	e.Quarantine(grp)
	if !e.Quarantined(grp) {
		t.Fatal("group not quarantined")
	}
	for _, ev := range evs {
		if d := decide(t, e, ev); d.Method == multicast.NetworkMulticast && d.Group == grp {
			t.Fatalf("quarantined group %d still routed", grp)
		}
	}
	if got := e.QuarantinedGroups(); len(got) != 1 || got[0] != grp {
		t.Errorf("QuarantinedGroups = %v", got)
	}
	if got := e.NumQuarantined(); got != 1 {
		t.Errorf("NumQuarantined = %d, want 1", got)
	}
	if err := e.Refresh(1); err != nil {
		t.Fatal(err)
	}
	if len(e.QuarantinedGroups()) != 0 {
		t.Error("quarantine survived warm refresh")
	}
	if got := e.NumQuarantined(); got != 0 {
		t.Errorf("NumQuarantined after refresh = %d, want 0", got)
	}

	defer func() {
		if recover() == nil {
			t.Error("out-of-range quarantine did not panic")
		}
	}()
	e.Quarantine(10_000)
}
