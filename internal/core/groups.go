package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/cluster"
	"repro/internal/matching"
	"repro/internal/multicast"
	"repro/internal/noloss"
	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/workload"
)

// router picks the multicast group an event is routed to: Fig 5's grid
// cell lookup (matching.GridIndex) or Fig 6's densest containing region
// (matching.NoLossIndex). ok is false when no group receives the event.
type router interface {
	GroupFor(p space.Point) (g int, ok bool)
}

// groupTable is one generation of multicast groups, everything a decision
// reads about them: the routing index, each group's subscriber membership
// vector s(g) over world's subscriber indices, its member nodes, and its
// application-level overlay. It is immutable once built (overlays fill in
// lazily, see overlay), so the engine and every snapshot taken of the
// generation share one table.
type groupTable struct {
	route   router
	world   *workload.World // SubscriberIndex only: members' index space
	members []*bitset.Set
	nodes   [][]topology.NodeID

	// Overlays are built lazily on first ALM costing: eager per-group Prim
	// over the metric closure (one Dijkstra per member) made construction
	// O(K · members²) before the first event could be decided, and is pure
	// waste for runs that never price application-level multicast. Cells
	// are atomic pointers filled with a compare-and-swap.
	// Model.BuildOverlay reads only the model's shared tree cache and is
	// deterministic, so racing builders compute identical overlays and
	// whichever CAS wins is indistinguishable.
	model    *multicast.Model
	overlays []atomic.Pointer[multicast.Overlay]
}

// newGroupTable translates each group's members into network nodes once.
func newGroupTable(w *workload.World, route router, members []*bitset.Set, model *multicast.Model) *groupTable {
	nodes := make([][]topology.NodeID, len(members))
	for g, m := range members {
		ns := make([]topology.NodeID, 0, m.Count())
		m.ForEach(func(i int) bool {
			ns = append(ns, w.SubscriberNodes[i])
			return true
		})
		nodes[g] = ns
	}
	return &groupTable{
		route:    route,
		world:    w,
		members:  members,
		nodes:    nodes,
		model:    model,
		overlays: make([]atomic.Pointer[multicast.Overlay], len(members)),
	}
}

// gridGroups builds the Fig 5 group table over a grid clustering.
func gridGroups(w *workload.World, grid *space.Grid, res *cluster.Result, model *multicast.Model) (*groupTable, error) {
	idx, err := matching.NewGridIndex(grid, res)
	if err != nil {
		return nil, fmt.Errorf("core: grid index: %w", err)
	}
	members := make([]*bitset.Set, len(res.Groups))
	for g := range res.Groups {
		members[g] = res.Groups[g].Members
	}
	return newGroupTable(w, idx, members, model), nil
}

// noLossGroups builds the Fig 6 group table over the k densest groups of a
// No-Loss result.
func noLossGroups(w *workload.World, res *noloss.Result, k int, model *multicast.Model) (*groupTable, error) {
	idx, err := matching.NewNoLossIndex(res, k)
	if err != nil {
		return nil, fmt.Errorf("core: no-loss index: %w", err)
	}
	groups := idx.Groups()
	members := make([]*bitset.Set, len(groups))
	for g := range groups {
		members[g] = groups[g].Members
	}
	return newGroupTable(w, idx, members, model), nil
}

// memberOf reports whether node n is in group g. A node that held no
// subscription when the groups were built is in none.
func (t *groupTable) memberOf(g int, n topology.NodeID) bool {
	i, ok := t.world.SubscriberIndex(n)
	return ok && t.members[g].Test(i)
}

// overlay returns group g's overlay, building and caching it on first use.
func (t *groupTable) overlay(g int) multicast.Overlay {
	if o := t.overlays[g].Load(); o != nil {
		return *o
	}
	o := t.model.BuildOverlay(t.nodes[g])
	if t.overlays[g].CompareAndSwap(nil, &o) {
		return o
	}
	return *t.overlays[g].Load()
}
